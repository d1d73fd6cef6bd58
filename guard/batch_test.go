package guard

import (
	"context"
	"strings"
	"testing"
)

// batchProbes returns a mixed bag of simulated windows (genuine and
// attackers) as raw signal pairs.
func batchProbes(t *testing.T) []Session {
	t.Helper()
	var windows []Session
	for i, kind := range []PeerKind{PeerGenuine, PeerReenact, PeerGenuine, PeerReplay, PeerReenact, PeerGenuine} {
		s, err := Simulate(SimOptions{Seed: int64(500 + i), Peer: kind})
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, Session{Transmitted: s.T, Received: s.R})
	}
	return windows
}

// TestBatchMatchesSequential is the core batch-engine contract: for every
// pool size the batch verdicts are bit-identical to the sequential
// Detect loop, in input order.
func TestBatchMatchesSequential(t *testing.T) {
	det := trainDetector(t)
	windows := batchProbes(t)

	want := make([]Verdict, len(windows))
	for i, w := range windows {
		v, err := det.Detect(w.Transmitted, w.Received)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}

	for _, workers := range []int{1, 2, 4, 8, 32} {
		bd, err := det.Batch(workers)
		if err != nil {
			t.Fatal(err)
		}
		if bd.Workers() != workers {
			t.Fatalf("Workers() = %d, want %d", bd.Workers(), workers)
		}
		for i, r := range bd.Detect(context.Background(), windows, Guardrails{}) {
			if r.Err != nil {
				t.Fatalf("workers=%d window %d: %v", workers, i, r.Err)
			}
			if r.Index != i {
				t.Fatalf("workers=%d result %d carries index %d", workers, i, r.Index)
			}
			if r.Verdict != want[i] {
				t.Fatalf("workers=%d window %d: batch %+v != sequential %+v", workers, i, r.Verdict, want[i])
			}
		}
	}
}

func TestBatchPartialFailure(t *testing.T) {
	det := trainDetector(t)
	windows := batchProbes(t)
	bad := windows[1]
	bad.Received = bad.Received[:len(bad.Received)-10] // mismatched lengths
	mixed := []Session{windows[0], bad, windows[2]}

	bd, err := det.Batch(2)
	if err != nil {
		t.Fatal(err)
	}
	results := bd.Detect(context.Background(), mixed, Guardrails{})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy windows failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil {
		t.Fatal("malformed window passed")
	}
	if !strings.Contains(results[1].Err.Error(), "signal lengths differ") {
		t.Errorf("unexpected error: %v", results[1].Err)
	}
}

func TestBatchEmptyAndValidation(t *testing.T) {
	det := trainDetector(t)
	if _, err := det.Batch(-2); err == nil || err.Error() != "guard: negative workers -2" {
		t.Errorf("negative workers error = %v", err)
	}
	bd, err := det.Batch(0)
	if err != nil {
		t.Fatal(err)
	}
	if bd.Workers() < 1 {
		t.Errorf("defaulted workers = %d", bd.Workers())
	}
	if got := bd.Detect(context.Background(), nil, Guardrails{}); len(got) != 0 {
		t.Errorf("empty batch returned %d results", len(got))
	}
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
