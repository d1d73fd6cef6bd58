package dsp

import (
	"fmt"
	"math"
)

// Frozen references for the hot kernels. Each is the straightforward
// form the optimized kernel replaced, kept verbatim so the differential
// fuzz targets can require the kernels to agree with it bit for bit —
// on NaN, ±Inf, −0 and subnormal inputs as much as on luminance.

// refDTWWindowed is the row-by-row DTW dynamic program: every cell reads
// its insertion, match and deletion neighbours from the rows in memory.
func refDTWWindowed(x, y []float64, radius int) (float64, error) {
	n, m := len(x), len(y)
	if n == 0 || m == 0 {
		return 0, fmt.Errorf("dsp: DTW of empty sequence (len %d vs %d)", n, m)
	}
	banded := radius >= 0
	if !banded || radius > n+m {
		radius = n + m
	}
	if d := m - n; d > 0 && radius < d {
		radius = d
	} else if d := n - m; d > 0 && radius < d {
		radius = d
	}
	prev, curr := make([]float64, m+1), make([]float64, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = math.Inf(1)
	}
	prev[0] = 0
	for i := 1; i <= n; i++ {
		lo := max(1, i-radius)
		hi := min(m, i+radius)
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

// refApproxEqual scales the tolerance with math.Max.
func refApproxEqual(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return math.Abs(a-b) <= Eps*scale
}

// refAppendPeaks scans the prominence of every plateau candidate.
func refAppendPeaks(dst []Peak, x []float64, minProminence float64) []Peak {
	n := len(x)
	if n < 3 {
		return dst
	}
	i := 1
	for i < n-1 {
		if x[i] > x[i-1] {
			j := i
			for j < n-1 && refApproxEqual(x[j+1], x[i]) {
				j++
			}
			if j < n-1 && x[j+1] < x[i] {
				mid := (i + j) / 2
				prom := refProminence(x, mid)
				if prom >= minProminence {
					dst = append(dst, Peak{Index: mid, Height: x[mid], Prominence: prom})
				}
				i = j + 1
				continue
			}
			i = j + 1
			continue
		}
		i++
	}
	return dst
}

// refProminence is the topographic prominence of the peak at p.
func refProminence(x []float64, p int) float64 {
	h := x[p]
	leftBase := h
	for i := p - 1; i >= 0; i-- {
		if x[i] > h {
			break
		}
		if x[i] < leftBase {
			leftBase = x[i]
		}
	}
	rightBase := h
	for i := p + 1; i < len(x); i++ {
		if x[i] > h {
			break
		}
		if x[i] < rightBase {
			rightBase = x[i]
		}
	}
	base := leftBase
	if rightBase > base {
		base = rightBase
	}
	return h - base
}

// refShiftInto reads every output sample through the replicate-padding
// accessor.
func refShiftInto(dst, x []float64, samples int) []float64 {
	out := resize(dst, len(x))
	for i := range out {
		out[i] = edgeAt(x, i-samples)
	}
	return out
}
