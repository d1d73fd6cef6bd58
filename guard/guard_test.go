package guard

import (
	"sync"
	"testing"

	"repro/trace"
)

var (
	trainOnce sync.Once
	trained   *Detector
	trainErr  error
)

// trainDetector returns a detector trained once and shared across tests:
// a trained Detector is read-only, so sharing is safe and keeps the
// race-enabled suite fast.
func trainDetector(t *testing.T) *Detector {
	t.Helper()
	trainOnce.Do(func() {
		sessions, err := SimulateMany(SimOptions{Seed: 100, Peer: PeerGenuine}, 10)
		if err != nil {
			trainErr = err
			return
		}
		var train []Session
		for _, s := range sessions {
			train = append(train, Session{Transmitted: s.T, Received: s.R})
		}
		trained, trainErr = Train(DefaultOptions(), train)
	})
	if trainErr != nil {
		t.Fatal(trainErr)
	}
	return trained
}

func TestTrainRequiresEnoughSessions(t *testing.T) {
	if _, err := Train(DefaultOptions(), make([]Session, 3)); err == nil {
		t.Error("3 sessions accepted with k = 5")
	}
}

func TestTrainRejectsBadOptions(t *testing.T) {
	opt := DefaultOptions()
	opt.SamplingRateHz = 0
	if _, err := Train(opt, make([]Session, 10)); err == nil {
		t.Error("zero sampling rate accepted")
	}
}

func TestDetectGenuineAndAttacker(t *testing.T) {
	det := trainDetector(t)

	accepted := 0
	for i := int64(0); i < 4; i++ {
		s, err := Simulate(SimOptions{Seed: 5000 + i, Peer: PeerGenuine})
		if err != nil {
			t.Fatal(err)
		}
		v, err := det.Detect(s.T, s.R)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Attacker {
			accepted++
		}
	}
	if accepted < 3 {
		t.Errorf("only %d/4 genuine sessions accepted", accepted)
	}

	rejected := 0
	for i := int64(0); i < 4; i++ {
		s, err := Simulate(SimOptions{Seed: 6000 + i, Peer: PeerReenact})
		if err != nil {
			t.Fatal(err)
		}
		v, err := det.Detect(s.T, s.R)
		if err != nil {
			t.Fatal(err)
		}
		if v.Attacker {
			rejected++
		}
	}
	if rejected < 3 {
		t.Errorf("only %d/4 reenactment sessions rejected", rejected)
	}
}

func TestTrainFromTracesFiltersLabels(t *testing.T) {
	legit, err := SimulateMany(SimOptions{Seed: 200, Peer: PeerGenuine}, 8)
	if err != nil {
		t.Fatal(err)
	}
	fake, err := Simulate(SimOptions{Seed: 300, Peer: PeerReenact})
	if err != nil {
		t.Fatal(err)
	}
	det, err := TrainFromTraces(DefaultOptions(), append(legit, fake))
	if err != nil {
		t.Fatal(err)
	}
	if det == nil {
		t.Fatal("nil detector")
	}
	if _, err := TrainFromTraces(DefaultOptions(), []trace.Session{fake}); err == nil {
		t.Error("attacker-only traces accepted for training")
	}
}

func TestDetectTraceRateMismatch(t *testing.T) {
	det := trainDetector(t)
	s := trace.Session{Fs: 8, T: make([]float64, 120), R: make([]float64, 120), Ground: trace.LabelLegit}
	if _, err := det.DetectTrace(s); err == nil {
		t.Error("rate mismatch accepted")
	}
}

func TestCombineVerdicts(t *testing.T) {
	det := trainDetector(t)
	mk := func(attacker bool) Verdict { return Verdict{Attacker: attacker} }
	flagged, err := det.CombineVerdicts([]Verdict{mk(true), mk(true), mk(true), mk(true), mk(false)})
	if err != nil {
		t.Fatal(err)
	}
	if !flagged {
		t.Error("4/5 votes should flag")
	}
	flagged, err = det.CombineVerdicts([]Verdict{mk(true), mk(false), mk(false)})
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Error("1/3 votes should not flag")
	}
	// A simple majority is not enough: 2 > 0.7·3 is false.
	flagged, err = det.CombineVerdicts([]Verdict{mk(true), mk(true), mk(false)})
	if err != nil {
		t.Fatal(err)
	}
	if flagged {
		t.Error("2/3 votes should not flag under the 0.7·D rule")
	}
	if _, err := det.CombineVerdicts(nil); err == nil {
		t.Error("empty verdicts accepted")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	a, err := Simulate(SimOptions{Seed: 7, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(SimOptions{Seed: 7, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.T {
		if a.T[i] != b.T[i] || a.R[i] != b.R[i] {
			t.Fatalf("non-deterministic simulation at sample %d", i)
		}
	}
}

func TestSimulateLabels(t *testing.T) {
	tests := []struct {
		kind PeerKind
		want trace.Label
	}{
		{PeerGenuine, trace.LabelLegit},
		{PeerReenact, trace.LabelReenact},
		{PeerForger, trace.LabelForger},
	}
	for _, tt := range tests {
		s, err := Simulate(SimOptions{Seed: 9, Peer: tt.kind})
		if err != nil {
			t.Fatal(err)
		}
		if s.Ground != tt.want {
			t.Errorf("%v labelled %q, want %q", tt.kind, s.Ground, tt.want)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("%v session invalid: %v", tt.kind, err)
		}
	}
}

func TestSimulateManyErrors(t *testing.T) {
	if _, err := SimulateMany(SimOptions{Seed: 1}, 0); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Simulate(SimOptions{Seed: 1, Peer: PeerKind(99)}); err == nil {
		t.Error("unknown peer kind accepted")
	}
}

func TestPeerKindString(t *testing.T) {
	if PeerGenuine.String() != "genuine" || PeerReenact.String() != "reenact" || PeerForger.String() != "forger" {
		t.Error("unexpected kind names")
	}
}

func TestTrainRejectsFeaturelessEnrollment(t *testing.T) {
	// Flat received signals: challenges never matched. The enrollment
	// gate must refuse to build a detector that would accept everyone.
	mk := func(seed int64) Session {
		tx := make([]float64, 150)
		rx := make([]float64, 150)
		level := 100.0
		for i := range tx {
			if i == 40+int(seed)%20 || i == 100 {
				level += 50
			}
			tx[i] = level
			rx[i] = 90 // no face response at all
		}
		return Session{Transmitted: tx, Received: rx}
	}
	var sessions []Session
	for i := int64(0); i < 10; i++ {
		sessions = append(sessions, mk(i))
	}
	if _, err := Train(DefaultOptions(), sessions); err == nil {
		t.Fatal("featureless enrollment accepted")
	}
	opt := DefaultOptions()
	opt.SkipEnrollmentCheck = true
	if _, err := Train(opt, sessions); err != nil {
		t.Fatalf("explicit skip should allow training: %v", err)
	}
}
