package preprocess

import (
	"fmt"

	"repro/internal/dsp"
)

// StreamChain is the incremental form of the Section V filter chain: one
// Push per raw sample, O(1) state, no per-hop reallocation. Its outputs
// are bit-identical to SmoothSignal over the same unbroken stream — the
// centred filters (low-pass FIR, Savitzky-Golay) introduce a fixed
// latency of half a window each, so output i becomes available once
// sample i+Latency() has been pushed, and Flush completes the tail with
// the same end-replication the batch chain applies.
//
// Note the reference is the chain over the continuous stream, not
// Process on each overlapping window: per-window batch runs replicate
// window-boundary samples into the FIR edges, an artifact of windowing
// that no per-sample operator can (or should) reproduce. The streaming
// detector judges hops on the continuous-chain signal, and its batch
// reference (guard.DetectStreamBatch) does the same.
type StreamChain struct {
	threshold float64
	fir       *dsp.SlidingConv
	vari      *dsp.SlidingVariance
	rms       *dsp.SlidingRMS
	sg        *dsp.SlidingConv
	mean      *dsp.SlidingMean
	latency   int
}

// ChainDesign is the designed filter chain of one Config: the low-pass
// FIR and Savitzky-Golay coefficients, computed once. It is read-only
// after NewChainDesign, so every StreamChain built from it — in any
// goroutine — shares its coefficient slices instead of designing and
// storing its own.
type ChainDesign struct {
	cfg Config
	lp  *dsp.LowPassFIR
	sg  *dsp.SavitzkyGolay
}

// NewChainDesign validates cfg and designs its two centred filters.
func NewChainDesign(cfg Config) (*ChainDesign, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lp, err := dsp.NewLowPassFIR(cfg.LowPassCutoffHz, cfg.Fs, cfg.LowPassTaps)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	sg, err := dsp.NewSavitzkyGolay(cfg.SGWindow, cfg.SGOrder)
	if err != nil {
		return nil, fmt.Errorf("preprocess: %w", err)
	}
	return &ChainDesign{cfg: cfg, lp: lp, sg: sg}, nil
}

// NewChain builds an incremental chain over the design's shared
// coefficients. Only the chain's rings and running sums are its own.
func (d *ChainDesign) NewChain() *StreamChain {
	c := &StreamChain{
		threshold: d.cfg.VarianceThreshold,
		fir:       d.lp.Sliding(),
		vari:      dsp.NewSlidingVariance(d.cfg.VarianceWindow),
		rms:       dsp.NewSlidingRMS(d.cfg.RMSWindow),
		sg:        d.sg.Sliding(),
		mean:      dsp.NewSlidingMean(d.cfg.SmoothWindow),
	}
	c.latency = c.fir.Latency() + c.sg.Latency()
	return c
}

// NewStreamChain builds the incremental chain for one signal: a design
// of its own, then NewChain. Callers building many chains from one
// Config share a ChainDesign instead.
func NewStreamChain(cfg Config) (*StreamChain, error) {
	d, err := NewChainDesign(cfg)
	if err != nil {
		return nil, err
	}
	return d.NewChain(), nil
}

// Latency returns how many samples a smoothed output lags its raw input:
// the two centred filters' half windows (25 samples = 2.5 s at the paper
// defaults). The trailing-window stages add none.
func (c *StreamChain) Latency() int { return c.latency }

// Push consumes one raw sample. ok turns true once the pipeline has
// filled (after Latency()+1 samples), after which every Push emits
// exactly one smoothed sample.
func (c *StreamChain) Push(v float64) (out float64, ok bool) {
	f, ok := c.fir.Push(v)
	if !ok {
		return 0, false
	}
	return c.tail(f)
}

// Flush completes the stream: it drains both centred filters with end
// replication, emitting the final Latency() smoothed samples (fewer on a
// stream shorter than the latency). The chain is spent afterwards.
func (c *StreamChain) Flush() []float64 {
	var out []float64
	for _, f := range c.fir.Flush() {
		if v, ok := c.tail(f); ok {
			out = append(out, v)
		}
	}
	for _, s := range c.sg.Flush() {
		out = append(out, c.smooth(s))
	}
	return out
}

// tail runs a low-passed sample through variance -> threshold -> RMS ->
// Savitzky-Golay, emitting once the SG window has filled.
func (c *StreamChain) tail(f float64) (float64, bool) {
	v := c.vari.Push(f)
	// Same comparison shape as dsp.ThresholdFloor: keep v only when
	// v >= threshold, so a NaN (which fails the comparison) zeroes too.
	if !(v >= c.threshold) {
		v = 0
	}
	s, ok := c.sg.Push(c.rms.Push(v))
	if !ok {
		return 0, false
	}
	return c.smooth(s), true
}

// smooth applies the final moving average and the non-negativity clamp.
func (c *StreamChain) smooth(s float64) float64 {
	m := c.mean.Push(s)
	if m < 0 {
		m = 0
	}
	return m
}

// SmoothSignal runs the batch filter chain over one unbroken signal and
// returns the smoothed variance signal — the batch reference that
// StreamChain reproduces bit for bit (sliding_test proves the per-stage
// identity, stream_test the whole chain). It is Process without the
// intermediate-stage capture, peak finding, and length gate: streaming
// callers window the smoothed signal themselves.
func SmoothSignal(sig []float64, cfg Config) ([]float64, error) {
	d, err := NewChainDesign(cfg)
	if err != nil {
		return nil, err
	}
	filtered := d.lp.Apply(sig)
	variance := dsp.MovingVariance(filtered, cfg.VarianceWindow)
	thresholded := dsp.ThresholdFloor(variance, cfg.VarianceThreshold)
	rms := dsp.MovingRMS(thresholded, cfg.RMSWindow)
	smoothed := dsp.MovingMean(d.sg.Apply(rms), cfg.SmoothWindow)
	for i, v := range smoothed {
		if v < 0 {
			smoothed[i] = 0
		}
	}
	return smoothed, nil
}
