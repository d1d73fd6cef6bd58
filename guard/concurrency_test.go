package guard

import (
	"strings"
	"sync"
	"testing"

	"repro/trace"
)

// TestDetectorConcurrentStress hammers one trained Detector from 32
// goroutines mixing Detect, DetectTrace and CombineVerdicts. Run under
// -race (CI does) this proves the public API carries no hidden shared
// state; the verdict comparisons prove interleaving never changes a
// result.
func TestDetectorConcurrentStress(t *testing.T) {
	det := trainDetector(t)

	kinds := []PeerKind{PeerGenuine, PeerReenact, PeerReplay, PeerGenuine}
	traces := make([]trace.Session, len(kinds))
	windows := make([]Session, len(kinds))
	want := make([]Verdict, len(kinds))
	for i, kind := range kinds {
		s, err := Simulate(SimOptions{Seed: int64(700 + i), Peer: kind})
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = s
		windows[i] = Session{Transmitted: s.T, Received: s.R}
		want[i], err = det.Detect(s.T, s.R)
		if err != nil {
			t.Fatal(err)
		}
	}
	wantFlagged, err := det.CombineVerdicts(want)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 32
	const iters = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				i := (g + it) % len(windows)
				switch (g + it) % 3 {
				case 0:
					got, err := det.Detect(windows[i].Transmitted, windows[i].Received)
					if err != nil {
						t.Errorf("goroutine %d Detect: %v", g, err)
						return
					}
					if got != want[i] {
						t.Errorf("goroutine %d: Detect(%d) = %+v, want %+v", g, i, got, want[i])
						return
					}
				case 1:
					got, err := det.DetectTrace(traces[i])
					if err != nil {
						t.Errorf("goroutine %d DetectTrace: %v", g, err)
						return
					}
					if got != want[i] {
						t.Errorf("goroutine %d: DetectTrace(%d) = %+v, want %+v", g, i, got, want[i])
						return
					}
				case 2:
					flagged, err := det.CombineVerdicts(want)
					if err != nil {
						t.Errorf("goroutine %d CombineVerdicts: %v", g, err)
						return
					}
					if flagged != wantFlagged {
						t.Errorf("goroutine %d: CombineVerdicts = %v, want %v", g, flagged, wantFlagged)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestTrainConcurrent trains several detectors at once, each with its own
// internal extraction pool, to shake out shared state in the training
// path (the pipeline design tables, the LOF builder).
func TestTrainConcurrent(t *testing.T) {
	sessions, err := SimulateMany(SimOptions{Seed: 100, Peer: PeerGenuine}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var train []Session
	for _, s := range sessions {
		train = append(train, Session{Transmitted: s.T, Received: s.R})
	}
	ref, err := Train(DefaultOptions(), train)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := Simulate(SimOptions{Seed: 901, Peer: PeerReenact})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.DetectTrace(probe)
	if err != nil {
		t.Fatal(err)
	}

	const trainers = 8
	var wg sync.WaitGroup
	for g := 0; g < trainers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			opt := DefaultOptions()
			opt.Workers = 1 + g%4
			det, err := Train(opt, train)
			if err != nil {
				t.Errorf("trainer %d: %v", g, err)
				return
			}
			got, err := det.DetectTrace(probe)
			if err != nil {
				t.Errorf("trainer %d: %v", g, err)
				return
			}
			if got != want {
				t.Errorf("trainer %d: verdict %+v, want %+v", g, got, want)
			}
		}(g)
	}
	wg.Wait()
}

// TestTrainParallelMatchesSequential proves the worker-pool training path
// produces the same model as the sequential one: identical verdicts and
// scores on identical probes, and identical error messages on failure.
func TestTrainParallelMatchesSequential(t *testing.T) {
	sessions, err := SimulateMany(SimOptions{Seed: 100, Peer: PeerGenuine}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var train []Session
	for _, s := range sessions {
		train = append(train, Session{Transmitted: s.T, Received: s.R})
	}
	seqOpt := DefaultOptions()
	seqOpt.Workers = 1
	parOpt := DefaultOptions()
	parOpt.Workers = 8
	seqDet, err := Train(seqOpt, train)
	if err != nil {
		t.Fatal(err)
	}
	parDet, err := Train(parOpt, train)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := Simulate(SimOptions{Seed: 900, Peer: PeerReenact})
	if err != nil {
		t.Fatal(err)
	}
	vs, err := seqDet.DetectTrace(probe)
	if err != nil {
		t.Fatal(err)
	}
	vp, err := parDet.DetectTrace(probe)
	if err != nil {
		t.Fatal(err)
	}
	if vs != vp {
		t.Errorf("parallel-trained verdict %+v != sequential %+v", vp, vs)
	}

	// Broken sessions: the parallel path must report the lowest-indexed
	// failure with the sequential path's exact message.
	broken := append([]Session(nil), train...)
	broken[3].Received = broken[3].Received[:5]
	broken[7].Received = nil
	_, seqErr := Train(seqOpt, broken)
	_, parErr := Train(parOpt, broken)
	if seqErr == nil || parErr == nil {
		t.Fatal("broken training set accepted")
	}
	if seqErr.Error() != parErr.Error() {
		t.Errorf("error messages diverge:\n  seq: %v\n  par: %v", seqErr, parErr)
	}
	if !strings.Contains(parErr.Error(), "training session 3") {
		t.Errorf("expected lowest-indexed failure, got: %v", parErr)
	}
}
