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
	inf := math.Inf(1)
	prev, curr := r.a[:m+1], r.b[:m+1]
	// Row 0 is read only by row 1, over the columns of its band.
	row0 := prev[:min(m, 1+radius)+1]
	for j := range row0 {
		row0[j] = inf
	}
	row0[0] = 0
	for i, xi := range x {
		lo := max(1, i+1-radius)
		hi := min(m, i+1+radius)
		// Only the band and its fringe are ever read: the next row touches
		// columns [lo'-1, hi'+1] with lo', hi' shifted at most one from
		// lo, hi, so resetting the two fringe cells replaces clearing the
		// whole row — same values read, O(band) instead of O(m).
		curr[lo-1] = inf
		if hi < m {
			curr[hi+1] = inf
		}
		// The cell loop over columns lo..hi. The rows and y are resliced
		// to the band, so it carries no bounds checks, and the match
		// (diagonal) and deletion (left) neighbours ride in registers:
		// each cell loads only its insertion neighbour and stores once.
		// A cell starts from its insertion neighbour and takes the match,
		// then the deletion, only when strictly smaller. That order
		// decides the NaN cases; FuzzDTWMatchesReference pins it to the
		// row-by-row program that reads every neighbour from memory.
		ys := y[lo-1 : hi]
		up := prev[lo : lo+len(ys)]
		out := curr[lo : lo+len(ys)]
		diag, left := prev[lo-1], inf
		for k, yj := range ys {
			u := up[k]
			best := u // insertion
			if diag < best {
				best = diag // match
			}
			if left < best {
				best = left // deletion
			}
			left = math.Abs(xi-yj) + best
			out[k], diag = left, u
		}
		prev, curr = curr, prev
	}
	if banded && math.IsInf(prev[m], 1) {
		return 0, fmt.Errorf("dsp: DTW band radius %d too narrow for lengths %d, %d", radius, n, m)
	}
	return prev[m], nil
}
