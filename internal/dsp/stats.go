package dsp

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var sum float64
	for _, v := range x {
		sum += v
	}
	return sum / float64(len(x))
}

// StdDev returns the population standard deviation of x.
func StdDev(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	m := Mean(x)
	var acc float64
	for _, v := range x {
		d := v - m
		acc += d * d
	}
	return math.Sqrt(acc / float64(len(x)))
}

// NormalizeUnit rescales x to [0, 1] into a new slice. A constant signal
// maps to all zeros. This is the paper's normalization of the smoothed
// variance signal before trend comparison (Section VI-2).
func NormalizeUnit(x []float64) []float64 {
	return NormalizeUnitInto(make([]float64, len(x)), x)
}

// NormalizeUnitInto is NormalizeUnit writing into dst, which is resized
// to len(x) (reallocated only when too small) and returned. dst may
// alias x.
func NormalizeUnitInto(dst, x []float64) []float64 {
	out := resize(dst, len(x))
	if len(x) == 0 {
		return out
	}
	lo, hi := x[0], x[0]
	for _, v := range x {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	if ApproxZero(span) {
		clear(out)
		return out
	}
	for i, v := range x {
		out[i] = (v - lo) / span
	}
	return out
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Pearson returns the Pearson correlation coefficient between equal-length
// vectors x and y (paper Eq. (6)). If either vector has zero variance the
// correlation is defined here as 0 (no linear relationship measurable).
func Pearson(x, y []float64) (float64, error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("dsp: Pearson length mismatch %d vs %d", len(x), len(y))
	}
	if len(x) == 0 {
		return 0, fmt.Errorf("dsp: Pearson of empty vectors")
	}
	mx, my := Mean(x), Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if ApproxZero(sxx) || ApproxZero(syy) {
		return 0, nil
	}
	r := sxy / math.Sqrt(sxx*syy)
	// Clamp numerical noise.
	if r > 1 {
		r = 1
	}
	if r < -1 {
		r = -1
	}
	return r, nil
}

// Shift returns x delayed by the given number of samples: positive shifts
// move content to the right (later in time) with replicate padding at the
// start; negative shifts move content left with replicate padding at the
// end. Used to remove the estimated network delay (Section VI-2).
func Shift(x []float64, samples int) []float64 {
	return ShiftInto(make([]float64, len(x)), x, samples)
}

// ShiftInto is Shift writing into dst, which is resized to len(x)
// (reallocated only when too small) and returned. dst must not alias x.
func ShiftInto(dst, x []float64, samples int) []float64 {
	n := len(x)
	out := resize(dst, n)
	// out[i] = x[i-samples] for i in [head, tail); the replicate padding
	// takes x[0] before head and x[n-1] from tail on.
	head, tail := min(max(samples, 0), n), n
	if samples < 0 {
		tail = max(n+samples, 0)
	}
	if head < tail {
		copy(out[head:tail], x[head-samples:tail-samples])
	}
	for i := range out[:head] {
		out[i] = x[0]
	}
	for i := tail; i < n; i++ {
		out[i] = x[n-1]
	}
	return out
}

// SplitHalves cuts x into two equal-length segments. When the length is
// odd the middle sample goes to the first segment. The returned slices
// alias x.
func SplitHalves(x []float64) ([]float64, []float64) {
	mid := (len(x) + 1) / 2
	return x[:mid], x[mid:]
}

// Resample converts x from one sample rate to another using linear
// interpolation. Both rates must be positive.
func Resample(x []float64, fromHz, toHz float64) ([]float64, error) {
	if fromHz <= 0 || toHz <= 0 {
		return nil, fmt.Errorf("dsp: resample rates must be positive, got %v -> %v", fromHz, toHz)
	}
	if len(x) == 0 {
		return nil, nil
	}
	dur := float64(len(x)) / fromHz
	n := int(dur * toHz)
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / toHz * fromHz // fractional index into x
		j := int(t)
		if j >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := t - float64(j)
		out[i] = x[j]*(1-frac) + x[j+1]*frac
	}
	return out, nil
}

// Decimate keeps every factor-th sample of x starting at index 0.
// A factor below 1 is treated as 1.
func Decimate(x []float64, factor int) []float64 {
	if factor < 1 {
		factor = 1
	}
	out := make([]float64, 0, (len(x)+factor-1)/factor)
	for i := 0; i < len(x); i += factor {
		out = append(out, x[i])
	}
	return out
}
