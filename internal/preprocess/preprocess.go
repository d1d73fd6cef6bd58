// Package preprocess implements the paper's Section V filter chain, which
// turns a raw luminance signal into a smoothed variance signal plus the
// list of significant luminance changes:
//
//	low-pass (1 Hz) -> moving variance (10) -> threshold (2) ->
//	moving RMS (30) -> Savitzky-Golay (31) -> moving average (10) ->
//	peak finding (prominence 10 for the screen signal, 0.5 for the face)
//
// All window lengths are denominated in samples, exactly as in the paper;
// at lower sampling rates the same windows cover more wall-clock time,
// which is what degrades 5 Hz operation in Fig. 16.
//
// The package also owns sample hygiene for lossy capture paths
// (resample.go): SanitizeSamples strips non-finite samples and reports
// the droppage, and Resample rebuilds the detector's uniform grid from
// timestamped samples — interpolating gaps within the gap budget
// (MaxGapSec), collapsing duplicates, absorbing reorderings, and marking
// longer holes invalid so the caller can abstain (Inconclusive with
// ReasonGapRatio at the guard layer) instead of judging held padding.
//
// Both the filter chain and the resampler report to internal/obs:
// per-stage latency histograms, resample hygiene counters, and the
// gap-ratio distribution. OBSERVABILITY.md catalogs the families.
package preprocess

import (
	"fmt"
	"time"

	"repro/internal/dsp"
)

// Config holds the filter-chain parameters (paper defaults in
// DefaultConfig).
type Config struct {
	// Fs is the sampling rate in Hz.
	Fs float64
	// LowPassCutoffHz removes scene-motion noise above the band where
	// screen-light changes live.
	LowPassCutoffHz float64
	// LowPassTaps is the FIR length (odd).
	LowPassTaps int
	// VarianceWindow is the short-time variance window, samples.
	VarianceWindow int
	// VarianceThreshold zeroes small variance spikes.
	VarianceThreshold float64
	// RMSWindow groups neighbouring variance peaks, samples.
	RMSWindow int
	// SGWindow / SGOrder configure the Savitzky-Golay smoother.
	SGWindow int
	SGOrder  int
	// SmoothWindow is the final moving-average window, samples.
	SmoothWindow int
}

// DefaultConfig returns the paper's parameters at the given sampling rate.
func DefaultConfig(fs float64) Config {
	return Config{
		Fs:                fs,
		LowPassCutoffHz:   1,
		LowPassTaps:       21,
		VarianceWindow:    10,
		VarianceThreshold: 2,
		RMSWindow:         30,
		SGWindow:          31,
		SGOrder:           3,
		SmoothWindow:      10,
	}
}

// Prominence defaults (Section V): the screen signal swings over most of
// the 8-bit range, the face reflection over a few counts.
const (
	ScreenProminence = 10
	FaceProminence   = 0.5
)

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.Fs <= 0 {
		return fmt.Errorf("preprocess: sampling rate %v must be positive", c.Fs)
	}
	if c.LowPassCutoffHz <= 0 || c.LowPassCutoffHz >= c.Fs/2 {
		return fmt.Errorf("preprocess: cutoff %v Hz outside (0, %v)", c.LowPassCutoffHz, c.Fs/2)
	}
	if c.LowPassTaps < 3 || c.LowPassTaps%2 == 0 {
		return fmt.Errorf("preprocess: low-pass taps %d must be odd and >= 3", c.LowPassTaps)
	}
	if c.VarianceWindow < 2 {
		return fmt.Errorf("preprocess: variance window %d too small", c.VarianceWindow)
	}
	if c.VarianceThreshold < 0 {
		return fmt.Errorf("preprocess: negative variance threshold %v", c.VarianceThreshold)
	}
	if c.RMSWindow < 1 || c.SmoothWindow < 1 {
		return fmt.Errorf("preprocess: RMS/smooth windows must be >= 1")
	}
	if c.SGWindow < 3 || c.SGWindow%2 == 0 || c.SGOrder < 1 || c.SGOrder >= c.SGWindow {
		return fmt.Errorf("preprocess: invalid Savitzky-Golay window %d order %d", c.SGWindow, c.SGOrder)
	}
	return nil
}

// Result carries every intermediate stage, so experiments can plot the
// Fig. 7 panels and features can consume the final signal.
type Result struct {
	// Raw is the input luminance signal.
	Raw []float64
	// Filtered is the low-passed signal.
	Filtered []float64
	// Variance is the short-time variance before thresholding.
	Variance []float64
	// Smoothed is the fully smoothed variance signal (the paper's
	// "luminance change trend").
	Smoothed []float64
	// Peaks are the significant luminance changes.
	Peaks []dsp.Peak
}

// ChangeTimes returns the peak positions in samples.
func (r *Result) ChangeTimes() []int {
	return dsp.PeakIndices(r.Peaks)
}

// Process runs the full chain on one luminance signal with the given peak
// prominence. The signal must be long enough for the Savitzky-Golay
// window.
func Process(sig []float64, cfg Config, prominence float64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prominence < 0 {
		return nil, fmt.Errorf("preprocess: negative prominence %v", prominence)
	}
	if len(sig) < cfg.SGWindow {
		return nil, fmt.Errorf("preprocess: signal of %d samples shorter than SG window %d", len(sig), cfg.SGWindow)
	}
	start := time.Now() //lint:ignore vclint/nodeterm stage latency metric only; the filter chain output is clock-free
	d, err := NewChainDesign(cfg)
	if err != nil {
		return nil, err
	}
	t := time.Now() //lint:ignore vclint/nodeterm stage latency metric only; the filter chain output is clock-free
	stageDesign.Observe(t.Sub(start).Seconds())

	filtered := d.lp.Apply(sig)
	t = stamp(stageLowpass, t)
	variance := dsp.MovingVariance(filtered, cfg.VarianceWindow)
	t = stamp(stageVariance, t)
	thresholded := dsp.ThresholdFloor(variance, cfg.VarianceThreshold)
	t = stamp(stageThreshold, t)
	rms := dsp.MovingRMS(thresholded, cfg.RMSWindow)
	t = stamp(stageRMS, t)
	sgOut := d.sg.Apply(rms)
	t = stamp(stageSavGol, t)
	smoothed := dsp.MovingMean(sgOut, cfg.SmoothWindow)
	// Polynomial fitting can undershoot below zero near sharp edges;
	// variance energy is non-negative by construction.
	for i, v := range smoothed {
		if v < 0 {
			smoothed[i] = 0
		}
	}
	t = stamp(stageSmooth, t)
	peaks := dsp.FindPeaks(smoothed, prominence)
	stamp(stagePeaks, t)
	metricProcessSeconds.ObserveSince(start)

	raw := make([]float64, len(sig))
	copy(raw, sig)
	return &Result{
		Raw:      raw,
		Filtered: filtered,
		Variance: variance,
		Smoothed: smoothed,
		Peaks:    peaks,
	}, nil
}
