package guard

import (
	"math"
	"runtime"
	"testing"
)

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

// TestStreamGateExitAllocations pins the cost of an abstaining hop. A
// warmed StreamDetector whose hops exit at the landmark, gap and stale
// gates allocates nothing but the growth of its results history: the
// Reason comes from the shape's interned texts and the abstention
// counter is resolved once. It counts every malloc in runtime.MemStats
// over the measured hops rather than a truncated mean.
func TestStreamGateExitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned for the production build, not the race-instrumented one")
	}
	det := trainDetector(t)
	sd, err := det.NewStreamDetector(DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	// 200-tick phases of landmark loss, missing transmitted values and
	// stale received ones: every tick is faulty, so every window breaks
	// one of the three bounds, and each gate fires in every 600 ticks.
	samples := cleanStream(t, 43100, PeerGenuine, 24)
	for i := range samples {
		switch s := &samples[i]; i / 200 % 3 {
		case 0:
			s.LandmarkLost = true
		case 1:
			s.Transmitted = math.NaN()
		default:
			s.Stale = true
		}
	}
	next := 0
	hop := func() *WindowResult {
		for next < len(samples) {
			r := sd.Push(samples[next])
			next++
			if r != nil {
				return r
			}
		}
		t.Fatal("stream ran out before the hop closed")
		return nil
	}
	// Warm through two full phase cycles, so every gate's abstention
	// counter is resolved before the count starts.
	for i := 0; i < 240; i++ {
		hop()
	}
	const hops = 300
	var exits [ReasonStale + 1]int
	growths, capacity := 0, cap(sd.results)
	// One P for the count, as testing.AllocsPerRun takes.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hops; i++ {
		exits[hop().Code]++
		if c := cap(sd.results); c != capacity {
			growths, capacity = growths+1, c
		}
	}
	runtime.ReadMemStats(&after)
	for _, code := range []ReasonCode{ReasonLandmarkLoss, ReasonGapRatio, ReasonStale} {
		if exits[code] == 0 {
			t.Fatalf("no measured hop exited at the %v gate (exits by code %v)", code, exits)
		}
	}
	if gated := exits[ReasonLandmarkLoss] + exits[ReasonGapRatio] + exits[ReasonStale]; gated != hops {
		t.Fatalf("%d of %d measured hops exited at a capture gate (exits by code %v)", gated, hops, exits)
	}
	if mallocs := after.Mallocs - before.Mallocs; mallocs != uint64(growths) {
		t.Errorf("%d gate-exit hops made %d mallocs, want only the %d growths of the results history",
			hops, mallocs, growths)
	}
}
