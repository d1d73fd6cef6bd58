package dsp

import (
	"fmt"
	"math"
)

// Sliding-window operators: incremental forms of the batch filters above,
// built for the streaming hot path. Each operator accepts one sample per
// Push in O(1) (amortized; centred filters emit after a fixed latency) and
// holds only a ring buffer of state, so a per-hop verdict never recomputes
// the whole window. Every operator is bit-identical to its batch
// counterpart: the per-sample arithmetic is the same code shape in the
// same order, which the differential suite in sliding_test.go and the
// FuzzSlidingOps target both enforce. None of them are safe for
// concurrent use; a stream owns its operators.

// SlidingConv is the incremental form of a centred odd-length convolution
// with replicate edge padding — the streaming counterpart of
// LowPassFIR.Apply and SavitzkyGolay.Apply. Output i needs input i+half,
// so Push runs half a window behind the input; Flush emits the trailing
// half window using end-replication, completing the exact batch output.
type SlidingConv struct {
	coef    []float64
	half    int
	buf     []float64 // ring: buf[t%len(coef)] holds input t
	n       int       // inputs pushed so far
	flushed bool
}

// NewSlidingConv builds the operator from centre-point convolution
// coefficients (odd length, as produced by the FIR and Savitzky-Golay
// designers).
func NewSlidingConv(coef []float64) (*SlidingConv, error) {
	if len(coef) < 1 || len(coef)%2 == 0 {
		return nil, fmt.Errorf("dsp: sliding convolution needs odd-length coefficients, got %d", len(coef))
	}
	return newSlidingConv(append([]float64(nil), coef...)), nil
}

// newSlidingConv builds the operator over coef without copying it: the
// filter designers hand over their own read-only coefficients, so every
// operator built from one design shares a single coefficient slice.
func newSlidingConv(coef []float64) *SlidingConv {
	return &SlidingConv{coef: coef, half: len(coef) / 2, buf: make([]float64, len(coef))}
}

// Latency returns how many samples an output lags its input: half the
// coefficient window.
func (s *SlidingConv) Latency() int { return s.half }

// Push consumes one sample. Once the operator has seen latency+1 inputs it
// emits one output per Push; until then ok is false.
func (s *SlidingConv) Push(v float64) (out float64, ok bool) {
	if s.flushed {
		panic("dsp: SlidingConv.Push after Flush")
	}
	s.buf[s.n%len(s.buf)] = v
	s.n++
	i := s.n - 1 - s.half // output index now fully determined
	if i < 0 {
		return 0, false
	}
	return s.at(i), true
}

// Flush emits the outputs still owed for the final inputs, replicating the
// last sample past the end exactly as the batch Apply does. The operator
// is spent afterwards.
func (s *SlidingConv) Flush() []float64 {
	if s.flushed {
		return nil
	}
	s.flushed = true
	start := s.n - s.half
	if start < 0 {
		start = 0
	}
	out := make([]float64, 0, s.n-start)
	for i := start; i < s.n; i++ {
		out = append(out, s.at(i))
	}
	return out
}

// at computes output i from the ring, clamping indices to [0, n-1] for
// replicate padding. It accumulates in the same ascending-k order as the
// batch Apply so the result is bit-identical.
func (s *SlidingConv) at(i int) float64 {
	last := s.n - 1
	if i >= s.half && i+s.half <= last {
		// Interior sample: the support [i-half, i+half] is exactly the
		// ring's span, so walk it with one wrap instead of a modulo per
		// tap. Same taps in the same order as the edge path below —
		// bit-identical output.
		p := (i - s.half) % len(s.buf)
		head := s.buf[p:]
		tail := s.coef[len(head):]
		var acc float64
		for k, v := range head {
			acc += s.coef[k] * v
		}
		for k, c := range tail {
			acc += c * s.buf[k]
		}
		return acc
	}
	var acc float64
	for k, c := range s.coef {
		j := i + k - s.half
		if j < 0 {
			j = 0
		}
		if j > last {
			j = last
		}
		acc += c * s.buf[j%len(s.buf)]
	}
	return acc
}

// Sliding returns an incremental operator applying this filter. The
// operator shares the filter's coefficients rather than copying them;
// the designer guarantees odd taps >= 3.
func (f *LowPassFIR) Sliding() *SlidingConv { return newSlidingConv(f.taps) }

// Sliding returns an incremental operator applying this smoother. The
// operator shares the smoother's coefficients rather than copying them;
// the designer guarantees an odd window >= 3.
func (s *SavitzkyGolay) Sliding() *SlidingConv { return newSlidingConv(s.coef) }

// SlidingVariance is the incremental form of MovingVariance: a trailing
// population variance over the given window with running sums. Emits one
// output per Push with zero latency.
type SlidingVariance struct {
	window     int
	buf        []float64
	sum, sumSq float64
	n          int
}

// NewSlidingVariance builds the operator; window < 1 clamps to 1, as in
// the batch form.
func NewSlidingVariance(window int) *SlidingVariance {
	if window < 1 {
		window = 1
	}
	return &SlidingVariance{window: window, buf: make([]float64, window)}
}

// Push consumes one sample and returns the variance over the trailing
// window (the available prefix while it fills).
func (s *SlidingVariance) Push(v float64) float64 {
	s.sum += v
	s.sumSq += v * v
	if s.n >= s.window {
		old := s.buf[s.n%s.window]
		s.sum -= old
		s.sumSq -= old * old
	}
	s.buf[s.n%s.window] = v
	s.n++
	w := float64(min(s.n, s.window))
	mean := s.sum / w
	out := s.sumSq/w - mean*mean
	if out < 0 { // numerical floor
		out = 0
	}
	return out
}

// SlidingMean is the incremental form of MovingMean.
type SlidingMean struct {
	window int
	buf    []float64
	sum    float64
	n      int
}

// NewSlidingMean builds the operator; window < 1 clamps to 1.
func NewSlidingMean(window int) *SlidingMean {
	if window < 1 {
		window = 1
	}
	return &SlidingMean{window: window, buf: make([]float64, window)}
}

// Push consumes one sample and returns the trailing moving average.
func (s *SlidingMean) Push(v float64) float64 {
	s.sum += v
	if s.n >= s.window {
		s.sum -= s.buf[s.n%s.window]
	}
	s.buf[s.n%s.window] = v
	s.n++
	return s.sum / float64(min(s.n, s.window))
}

// SlidingRMS is the incremental form of MovingRMS.
type SlidingRMS struct {
	window int
	buf    []float64
	sumSq  float64
	n      int
}

// NewSlidingRMS builds the operator; window < 1 clamps to 1.
func NewSlidingRMS(window int) *SlidingRMS {
	if window < 1 {
		window = 1
	}
	return &SlidingRMS{window: window, buf: make([]float64, window)}
}

// Push consumes one sample and returns the trailing root-mean-square.
func (s *SlidingRMS) Push(v float64) float64 {
	s.sumSq += v * v
	if s.n >= s.window {
		old := s.buf[s.n%s.window]
		s.sumSq -= old * old
	}
	s.buf[s.n%s.window] = v
	s.n++
	ms := s.sumSq / float64(min(s.n, s.window))
	if ms < 0 {
		ms = 0
	}
	return math.Sqrt(ms)
}
