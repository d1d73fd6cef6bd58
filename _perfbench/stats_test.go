package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0, 1}, {0.001, 1}} {
		if got := quantile(xs, c.p); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single sample p99 = %v, want 7", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}

func TestPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		tail int
		ok   bool
	}{
		{1000, 0.99, 10, true},
		{999, 0.99, 9, false},
		{1500, 0.99, 15, true},
		{20, 0.5, 10, true},
		{19, 0.5, 9, false},
		{0, 0.5, 0, false},
	} {
		if got := tailCount(c.n, c.p); got != c.tail {
			t.Errorf("tailCount(%d, %v) = %d, want %d", c.n, c.p, got, c.tail)
		}
		if got := supported(c.n, c.p); got != c.ok {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.ok)
		}
	}
}

func TestSummarizeSortsAndCounts(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	if s.n != 5 || s.p50 != 3 || s.p99 != 5 {
		t.Errorf("summary = %+v, want n=5 p50=3 p99=5", s)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "hop", start: 0, end: 100, parent: -1},
		{name: "peaks", start: 10, end: 30, parent: 0},
		{name: "extract", start: 40, end: 70, parent: 0},
		{name: "dtw", start: 45, end: 65, parent: 2}, // grandchild: only its parent loses it
		{name: "lof", start: 60, end: 80, parent: 0}, // overlaps extract by 10
		{name: "late", start: 95, end: 120, parent: 0},
		{name: "other", start: 0, end: 50, parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{
		100 - (20 + 40 + 5), // peaks 10..30, extract∪lof 40..80, late clipped to 95..100
		20,
		30 - 20,
		20,
		20,
		25,
		50,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, c := range []struct {
		lo, hi int64
		iv     [][2]int64
		want   int64
	}{
		{0, 10, nil, 0},
		{0, 10, [][2]int64{{2, 4}, {3, 6}}, 4},           // overlap counted once
		{0, 10, [][2]int64{{5, 8}, {1, 2}}, 4},           // unsorted input
		{0, 10, [][2]int64{{-5, 3}, {8, 20}}, 5},         // clipped to the parent
		{0, 10, [][2]int64{{1, 9}, {2, 3}, {4, 5}}, 8},   // nested inside another child
		{0, 10, [][2]int64{{12, 15}}, 0},                 // wholly outside
		{0, 10, [][2]int64{{0, 10}, {0, 10}}, 10},        // duplicates
		{0, 10, [][2]int64{{3, 3}, {4, 4}, {2, 5}}, 3},   // empty intervals
		{5, 15, [][2]int64{{0, 6}, {14, 30}, {7, 9}}, 4}, // both edges clipped
	} {
		if got := covered(c.lo, c.hi, c.iv); got != c.want {
			t.Errorf("covered(%d, %d, %v) = %d, want %d", c.lo, c.hi, c.iv, got, c.want)
		}
	}
}

func TestPerCallCountsBlockSpans(t *testing.T) {
	spans := []span{
		{name: "chain", start: 0, end: 1000, parent: -1, calls: 100},
		{name: "chain", start: 0, end: 500, parent: -1, calls: 100},
		{name: "peaks", start: 0, end: 30, parent: -1},
	}
	if got := perCall(spans, "chain"); got != 7.5 {
		t.Errorf("perCall(chain) = %v, want 7.5", got)
	}
	if got := perCall(spans, "peaks"); got != 30 {
		t.Errorf("perCall(peaks) = %v, want 30 (a span without a count is one call)", got)
	}
	by := byName(spans)
	if len(by["chain"]) != 2 || by["chain"][0] != 10 || by["chain"][1] != 5 {
		t.Errorf("byName(chain) = %v, want per-call means [10 5]", by["chain"])
	}
}

func TestOpsAccounting(t *testing.T) {
	var o ops
	if o.answeredRatio() != 0 {
		t.Error("no attempts must answer nothing")
	}
	o.add(outcomeOK, 90)
	o.add(outcomeShed, 3)
	o.add(outcomeError, 2)
	o.add(outcomeNoVerdict, 1)
	o.expire(4)
	if o.attempted() != 96 {
		t.Errorf("attempted = %d, want 96", o.attempted())
	}
	if o.failed() != 10 {
		t.Errorf("failed = %d, want 10 (3 shed, 2 errors, 1 without verdict, 4 late)", o.failed())
	}
	if got, want := o.answeredRatio(), 86.0/96; got != want {
		t.Errorf("answered = %v, want %v", got, want)
	}
}

func TestHopsAt(t *testing.T) {
	r := &liveRig{firstHop: 205, hop: 5}
	for _, c := range []struct{ n, want int }{{0, 0}, {204, 0}, {205, 1}, {209, 1}, {210, 2}, {305, 21}} {
		if got := r.hopsAt(c.n); got != c.want {
			t.Errorf("hopsAt(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
