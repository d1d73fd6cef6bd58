package guard

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/features"
	"repro/internal/preprocess"
)

// --- NaN/Inf input hygiene (Detect / Train) ---

func TestDetectRejectsNonFinite(t *testing.T) {
	det := trainDetector(t)
	s, err := Simulate(SimOptions{Seed: 31, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}

	tx := append([]float64(nil), s.T...)
	tx[17] = math.NaN()
	_, err = det.Detect(tx, s.R)
	if err == nil {
		t.Fatal("NaN transmitted sample accepted")
	}
	for _, want := range []string{"transmitted", "sample 17", "non-finite"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}

	rx := append([]float64(nil), s.R...)
	rx[3] = math.Inf(1)
	_, err = det.Detect(s.T, rx)
	if err == nil || !strings.Contains(err.Error(), "received") {
		t.Errorf("Inf received sample: err = %v, want received-signal rejection", err)
	}
}

func TestTrainRejectsNonFinite(t *testing.T) {
	sessions, err := SimulateMany(SimOptions{Seed: 1, Peer: PeerGenuine}, 8)
	if err != nil {
		t.Fatal(err)
	}
	var train []Session
	for _, s := range sessions {
		train = append(train, Session{Transmitted: s.T, Received: s.R})
	}
	train[4].Received = append([]float64(nil), train[4].Received...)
	train[4].Received[9] = math.NaN()
	_, err = Train(DefaultOptions(), train)
	if err == nil {
		t.Fatal("training set with NaN accepted")
	}
	for _, want := range []string{"session 4", "received", "sample 9"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// --- StreamDetector quality gates, pinning Reason codes and strings ---

// genuineSamples turns a simulated genuine session into stream samples,
// letting mutate inject capture faults tick by tick.
func genuineSamples(t *testing.T, seed int64, mutate func(i int, s *StreamSample)) []StreamSample {
	t.Helper()
	sess, err := Simulate(SimOptions{Seed: seed, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]StreamSample, len(sess.T))
	for i := range sess.T {
		out[i] = StreamSample{Transmitted: sess.T[i], Received: sess.R[i]}
		if mutate != nil {
			mutate(i, &out[i])
		}
	}
	return out
}

// TestStreamQualityGates drives each capture-quality gate of the stream
// judge. HopSamples = WindowSamples judges every 150-tick session as one
// window, and the last window of each stream must carry the pinned code
// and label.
func TestStreamQualityGates(t *testing.T) {
	det := trainDetector(t)
	flat := make([]StreamSample, 150)
	for i := range flat {
		flat[i] = StreamSample{Transmitted: 100, Received: 90}
	}
	staleEveryOther := func(i int, s *StreamSample) { s.Stale = i%2 == 1 }
	cases := []struct {
		name     string
		maxStale float64
		samples  []StreamSample
		want     ReasonCode
		label    string // pinned Reason prefix of an inconclusive window
		check    func(t *testing.T, res []WindowResult)
	}{
		{
			// A flat transmitted signal means the verifier never challenged.
			name: "no_challenge", samples: flat, want: ReasonNoChallenge, label: "no challenge",
			check: func(t *testing.T, res []WindowResult) {
				if q := res[len(res)-1].Quality; q != 1 {
					t.Errorf("clean flat window quality = %v, want 1", q)
				}
			},
		},
		{
			// Every third tick delivers nothing.
			name: "gap_ratio", want: ReasonGapRatio, label: "gap ratio",
			samples: genuineSamples(t, 51, func(i int, s *StreamSample) {
				if i%3 == 0 {
					s.Transmitted, s.Received = math.NaN(), math.NaN()
				}
			}),
			check: func(t *testing.T, res []WindowResult) {
				last := res[len(res)-1]
				if last.Quality >= 0.8 {
					t.Errorf("quality = %v for a window with ~33%% gaps", last.Quality)
				}
				if last.Gaps == 0 {
					t.Error("gap count not reported")
				}
			},
		},
		{
			// A 6-second landmark outage.
			name: "landmark_loss", want: ReasonLandmarkLoss, label: "landmark loss",
			samples: genuineSamples(t, 52, func(i int, s *StreamSample) { s.LandmarkLost = i >= 30 && i < 90 }),
		},
		{
			// 75/150 stale ticks sit exactly at the bound: still judged.
			name: "stale_at_bound", maxStale: 0.5, want: ReasonNone,
			samples: genuineSamples(t, 53, staleEveryOther),
		},
		{
			name: "stale_over_bound", maxStale: 0.3, want: ReasonStale, label: "stale samples",
			samples: genuineSamples(t, 53, staleEveryOther),
		},
		{
			// A clean window after a degraded one: per-window tallies must
			// not leak into the next window.
			name: "clean_after_degraded", want: ReasonNone,
			samples: append(
				genuineSamples(t, 55, func(i int, s *StreamSample) { s.LandmarkLost = i%2 == 0 }),
				genuineSamples(t, 56, nil)...),
			check: func(t *testing.T, res []WindowResult) {
				if len(res) != 2 || res[0].Code != ReasonLandmarkLoss {
					t.Fatalf("results = %+v, want a landmark-loss window first", res)
				}
				if q := res[1].Quality; q != 1 {
					t.Errorf("clean window quality = %v, want 1", q)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sd, err := det.NewStreamDetector(StreamConfig{
				WindowSamples: 150, HopSamples: 150, MinChallenges: 1, MaxStaleRatio: tc.maxStale,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range tc.samples {
				sd.Push(s)
			}
			sd.Finish()
			res := sd.Results()
			if len(res) == 0 {
				t.Fatal("no window judged")
			}
			last := res[len(res)-1]
			if last.Code != tc.want || last.Inconclusive != (tc.want != ReasonNone) {
				t.Fatalf("last window = %+v, want code %v", last, tc.want)
			}
			if !strings.HasPrefix(last.Reason, tc.label) {
				t.Errorf("reason %q does not start with pinned label %q", last.Reason, tc.label)
			}
			if conclusive, _ := sd.Windows(); conclusive == 0 {
				if _, err := sd.Flagged(); err == nil {
					t.Error("Flagged succeeded with zero conclusive windows")
				}
			}
			if tc.check != nil {
				tc.check(t, res)
			}
		})
	}
}

func TestReasonCodeStrings(t *testing.T) {
	want := map[ReasonCode]string{
		ReasonNone:         "none",
		ReasonExtraction:   "extraction failed",
		ReasonNoChallenge:  "no challenge",
		ReasonGapRatio:     "gap ratio",
		ReasonLandmarkLoss: "landmark loss",
		ReasonStale:        "stale samples",
	}
	for code, label := range want {
		if code.String() != label {
			t.Errorf("%d.String() = %q, want %q", int(code), code.String(), label)
		}
	}
	if got := ReasonCode(99).String(); got != "ReasonCode(99)" {
		t.Errorf("unknown code = %q", got)
	}
}

// --- DetectSamples: timestamped, lossy windows ---

// sessionSamples converts a simulated session into timestamped streams.
func sessionSamples(t *testing.T, seed int64, peer PeerKind) (tx, rx []preprocess.Sample, fs float64) {
	t.Helper()
	s, err := Simulate(SimOptions{Seed: seed, Peer: peer})
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.T {
		ts := float64(i) / s.Fs
		tx = append(tx, preprocess.Sample{T: ts, V: s.T[i]})
		rx = append(rx, preprocess.Sample{T: ts, V: s.R[i]})
	}
	return tx, rx, s.Fs
}

func TestDetectSamplesCleanMatchesDetect(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 61, PeerGenuine)
	res, err := det.DetectSamples(tx, rx, StreamQuality{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconclusive {
		t.Fatalf("clean window inconclusive: %s", res.Reason)
	}
	if res.Quality != 1 {
		t.Errorf("clean quality = %v, want 1", res.Quality)
	}
	s, err := Simulate(SimOptions{Seed: 61, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	want, err := det.Detect(s.T, s.R)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != want {
		t.Errorf("resampled verdict %+v != direct %+v", res.Verdict, want)
	}
}

func TestDetectSamplesGapHeavyInconclusive(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 62, PeerGenuine)
	// Cut a 5-second hole out of the received stream.
	cut := append([]preprocess.Sample(nil), rx[:40]...)
	cut = append(cut, rx[90:]...)
	res, err := det.DetectSamples(tx, cut, StreamQuality{MaxGapSec: 0.5, MaxGapRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive || res.Code != ReasonGapRatio {
		t.Fatalf("gap-heavy window = %+v, want ReasonGapRatio", res)
	}
	if res.Quality >= 0.8 {
		t.Errorf("quality = %v with a 5 s hole", res.Quality)
	}
}

func TestDetectSamplesNaNBurstDegrades(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 63, PeerGenuine)
	for i := 50; i < 100; i++ { // a long NaN burst becomes a long gap
		rx[i].V = math.NaN()
	}
	res, err := det.DetectSamples(tx, rx, StreamQuality{MaxGapSec: 0.5, MaxGapRatio: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive {
		t.Fatal("NaN-burst window judged conclusively")
	}
	if res.Code != ReasonGapRatio {
		t.Errorf("code = %v, want ReasonGapRatio", res.Code)
	}
}

func TestDetectSamplesTolerableJitter(t *testing.T) {
	det := trainDetector(t)
	tx, rx, _ := sessionSamples(t, 64, PeerGenuine)
	// Drop every 20th received sample and swap one pair: well within bounds.
	var lossy []preprocess.Sample
	for i, s := range rx {
		if i%20 == 10 {
			continue
		}
		lossy = append(lossy, s)
	}
	lossy[5], lossy[6] = lossy[6], lossy[5]
	res, err := det.DetectSamples(tx, lossy, StreamQuality{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inconclusive {
		t.Fatalf("mildly lossy window inconclusive: %s", res.Reason)
	}
}

func TestDetectSamplesStructuralError(t *testing.T) {
	det := trainDetector(t)
	if _, err := det.DetectSamples(nil, nil, StreamQuality{}); err == nil {
		t.Error("empty streams accepted")
	}
	if _, err := det.DetectSamples(nil, nil, StreamQuality{MaxGapRatio: 2}); err == nil {
		t.Error("invalid quality bound accepted")
	}
}

// --- training panic containment ---

// TestTrainContainsPanicMessage drives Train's extraction pool with an
// injected extraction: a panic in one session must surface as that
// session's error, the lowest panicking index must win, and each
// contained panic must count once.
func TestTrainContainsPanicMessage(t *testing.T) {
	const want = "guard: training session 2: feature extraction panicked: 42"
	for _, panicking := range [][]int{{2}, {2, 5}} {
		trainPanics := metricPanics.With("train")
		before := trainPanics.Value()
		_, _, err := extractTrainingVectors(8, 4, func(i int) (features.Vector, features.Detail, error) {
			if slices.Contains(panicking, i) {
				panic(40 + i)
			}
			return features.Vector{}, features.Detail{Matched: 1}, nil
		})
		if err == nil || err.Error() != want {
			t.Errorf("sessions %v panic: err = %v, want %q", panicking, err, want)
		}
		if got := trainPanics.Value() - before; got != int64(len(panicking)) {
			t.Errorf("sessions %v panic: %d train panics recovered, want %d", panicking, got, len(panicking))
		}
	}
}
