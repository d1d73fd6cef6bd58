package guard

import "testing"

// TestStreamHopAllocationFree pins the live hot path's memory budget: a
// warmed StreamDetector judges a conclusive hop — window copy, peaks,
// features, banded DTW, LOF — without a heap allocation. The hop
// borrows its scratch from the shared pool and returns the detector's
// own result copy, so nothing per hop reaches the collector.
func TestStreamHopAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random, so pooled hop scratch reallocates")
	}
	det := trainDetector(t)
	sd, err := det.NewStreamDetector(DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	samples := cleanStream(t, 43000, PeerGenuine, 12)
	next := 0
	inconclusive := 0
	hop := func() {
		for next < len(samples) {
			r := sd.Push(samples[next])
			next++
			if r != nil {
				if r.Inconclusive {
					inconclusive++
				}
				return
			}
		}
		t.Fatal("stream ran out before the hop closed")
	}
	// Warm: the first hops grow the pooled scratch to the window's
	// peak and change counts.
	for i := 0; i < 40; i++ {
		hop()
	}
	const hops = 200
	inconclusive = 0
	if allocs := testing.AllocsPerRun(hops, hop); allocs != 0 {
		t.Errorf("warmed hop allocates %v times, want 0", allocs)
	}
	if inconclusive != 0 {
		t.Fatalf("%d of %d measured hops were inconclusive; the test needs conclusive hops", inconclusive, hops+1)
	}
}
