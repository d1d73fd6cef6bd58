package dsp

import (
	"fmt"
	"math"
	"sync"
)

// DTWRows is caller-owned scratch for the DTW dynamic program: its two
// rolling rows. The zero value is ready. The rows grow to the longest
// second sequence seen and every call reinitializes each cell it reads,
// so reusing one DTWRows across calls cannot change an output bit.
type DTWRows struct {
	a, b []float64
}

// dtwRows pools DTWRows for DTW and DTWWindowed, whose callers bring no
// scratch of their own.
var dtwRows = sync.Pool{New: func() any { return new(DTWRows) }}

// DTW computes the dynamic time warping distance between x and y using
// absolute-difference local cost and the standard (match, insert, delete)
// step pattern. The returned value is the total accumulated cost along the
// optimal warping path (paper feature z4 before its /30 scaling).
func DTW(x, y []float64) (float64, error) {
	return DTWWindowed(x, y, -1)
}

// DTWWindowed computes DTW constrained to a Sakoe-Chiba band of the given
// radius (in samples). Radius < 0 means unconstrained. The band makes the
// distance robust to pathological warps and cuts cost from O(n·m) to
// O(n·radius).
func DTWWindowed(x, y []float64, radius int) (float64, error) {
	r := dtwRows.Get().(*DTWRows)
	d, err := r.Windowed(x, y, radius)
	dtwRows.Put(r)
	return d, err
}

// Windowed is DTWWindowed over r's rows.
func (r *DTWRows) Windowed(x, y []float64, radius int) (float64, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, fmt.Errorf("dsp: DTW of empty sequence (len %d vs %d)", n, m)
	}
	banded := radius >= 0
	// A band wider than the table is unconstrained, and the unconstrained
	// table is the band of radius n+m: every row spans columns [1, m].
	// Clamping also keeps i+radius from overflowing on absurd radii.
	if !banded || radius > n+m {
		radius = n + m
	}
	// Widen the band enough to always reach the corner when lengths differ.
	if d := m - n; d > 0 && radius < d {
		radius = d
	} else if d := n - m; d > 0 && radius < d {
		radius = d
	}
	if cap(r.a) < m+1 || cap(r.b) < m+1 {
		r.a, r.b = make([]float64, m+1), make([]float64, m+1)
	}
	prev, curr := r.a[:m+1], r.b[:m+1]
	for j := 0; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		lo := maxInt(1, i-radius)
		hi := minInt(m, i+radius)
		// Only the band and its fringe are ever read: row i+1 touches
		// columns [lo'-1, hi'+1] with lo', hi' shifted at most one from
		// lo, hi, so resetting the two fringe cells replaces clearing the
		// whole row — same values read, O(band) instead of O(m).
		curr[lo-1] = math.Inf(1)
		if hi < m {
			curr[hi+1] = math.Inf(1)
		}
		for j := lo; j <= hi; j++ {
			cost := math.Abs(x[i-1] - y[j-1])
			best := prev[j] // insertion
			if prev[j-1] < best {
				best = prev[j-1] // match
			}
			if curr[j-1] < best {
				best = curr[j-1] // deletion
			}
			curr[j] = cost + best
		}
		prev, curr = curr, prev
	}
	if banded && math.IsInf(prev[m], 1) {
		return 0, fmt.Errorf("dsp: DTW band radius %d too narrow for lengths %d, %d", radius, n, m)
	}
	return prev[m], nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
