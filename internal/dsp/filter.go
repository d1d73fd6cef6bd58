// Package dsp implements the signal-processing substrate used by the
// defense pipeline: FIR low-pass filtering, moving-window statistics,
// threshold filtering, Savitzky–Golay smoothing, peak finding with
// prominence, FFT-based spectra, resampling, Pearson correlation and
// dynamic time warping.
//
// All functions operate on []float64 sample vectors and never mutate their
// inputs unless documented otherwise.
package dsp

import (
	"fmt"
	"math"
)

// LowPassFIR designs a windowed-sinc (Hamming) low-pass FIR filter.
type LowPassFIR struct {
	taps []float64
}

// NewLowPassFIR designs a low-pass filter with the given cutoff frequency
// (Hz), sample rate (Hz) and number of taps. Taps must be odd and >= 3 so
// the filter has integral group delay; cutoff must lie in (0, sampleRate/2).
func NewLowPassFIR(cutoffHz, sampleRateHz float64, taps int) (*LowPassFIR, error) {
	if taps < 3 || taps%2 == 0 {
		return nil, fmt.Errorf("dsp: FIR taps must be odd and >= 3, got %d", taps)
	}
	if sampleRateHz <= 0 {
		return nil, fmt.Errorf("dsp: sample rate must be positive, got %v", sampleRateHz)
	}
	if cutoffHz <= 0 || cutoffHz >= sampleRateHz/2 {
		return nil, fmt.Errorf("dsp: cutoff %v Hz outside (0, %v) for fs=%v", cutoffHz, sampleRateHz/2, sampleRateHz)
	}
	fc := cutoffHz / sampleRateHz // normalized cutoff in cycles/sample
	m := taps - 1
	h := make([]float64, taps)
	var sum float64
	for i := range h {
		n := float64(i - m/2)
		var sinc float64
		// Integer comparison: the centre tap is exactly i == m/2, so
		// no float tolerance is involved.
		if i == m/2 {
			sinc = 2 * math.Pi * fc
		} else {
			sinc = math.Sin(2*math.Pi*fc*n) / n
		}
		// Hamming window.
		w := 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(m))
		h[i] = sinc * w
		sum += h[i]
	}
	// Normalize for unity DC gain.
	for i := range h {
		h[i] /= sum
	}
	return &LowPassFIR{taps: h}, nil
}

// Taps returns a copy of the filter coefficients.
func (f *LowPassFIR) Taps() []float64 {
	out := make([]float64, len(f.taps))
	copy(out, f.taps)
	return out
}

// Apply filters x with zero phase delay: the convolution is centred, and
// the edges are handled by replicating the first/last sample so the output
// has the same length as the input.
func (f *LowPassFIR) Apply(x []float64) []float64 {
	n := len(x)
	if n == 0 {
		return nil
	}
	half := len(f.taps) / 2
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var acc float64
		for k, c := range f.taps {
			j := i + k - half
			acc += c * edgeAt(x, j)
		}
		out[i] = acc
	}
	return out
}

// edgeAt reads x[j] with replicate padding.
func edgeAt(x []float64, j int) float64 {
	if j < 0 {
		return x[0]
	}
	if j >= len(x) {
		return x[len(x)-1]
	}
	return x[j]
}

// MovingVariance returns the population variance over a trailing window of
// the given length at every sample. For the first window-1 samples the
// window is the available prefix. Window must be >= 1. This is the paper's
// "short-time variance within each window" (Section V).
func MovingVariance(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	n := len(x)
	out := make([]float64, n)
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		sum += x[i]
		sumSq += x[i] * x[i]
		if i >= window {
			sum -= x[i-window]
			sumSq -= x[i-window] * x[i-window]
		}
		w := float64(min(i+1, window))
		mean := sum / w
		v := sumSq/w - mean*mean
		if v < 0 { // numerical floor
			v = 0
		}
		out[i] = v
	}
	return out
}

// MovingMean returns the trailing moving average with the given window.
func MovingMean(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	n := len(x)
	out := make([]float64, n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += x[i]
		if i >= window {
			sum -= x[i-window]
		}
		out[i] = sum / float64(min(i+1, window))
	}
	return out
}

// MovingRMS returns the trailing root-mean-square with the given window.
func MovingRMS(x []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	n := len(x)
	out := make([]float64, n)
	var sumSq float64
	for i := 0; i < n; i++ {
		sumSq += x[i] * x[i]
		if i >= window {
			sumSq -= x[i-window] * x[i-window]
		}
		ms := sumSq / float64(min(i+1, window))
		if ms < 0 {
			ms = 0
		}
		out[i] = math.Sqrt(ms)
	}
	return out
}

// ThresholdFloor zeroes every sample strictly below the cutoff and leaves
// the rest untouched. This is the paper's "threshold filter ... with a
// cut-off threshold of 2" used to remove small spikes in the variance
// signal.
func ThresholdFloor(x []float64, cutoff float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		if v >= cutoff {
			out[i] = v
		}
	}
	return out
}
