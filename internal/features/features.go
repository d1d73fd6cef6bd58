// Package features implements the paper's Section VI: four features
// describing how well the two luminance signals agree.
//
//   - z1: fraction of the transmitted video's significant luminance
//     changes matched by a change in the received video (Eq. 4).
//   - z2: fraction of the received video's changes matched in the
//     transmitted video (Eq. 5).
//   - z3: the smaller Pearson correlation over the two halves of the
//     delay-aligned, normalized smoothed variance signals (Eq. 6).
//   - z4: the larger DTW distance over the same halves, divided by 30.
package features

import (
	"fmt"
	"math"

	"repro/internal/dsp"
	"repro/internal/preprocess"
)

// Vector is one feature observation on the (z1, z2, z3, z4) hyperplane.
type Vector struct {
	Z1, Z2, Z3, Z4 float64
}

// Slice returns the features as a []float64 for the classifier.
func (v Vector) Slice() []float64 {
	return []float64{v.Z1, v.Z2, v.Z3, v.Z4}
}

// Config tunes the extractor.
type Config struct {
	// MatchToleranceSamples is the maximum distance (in samples) between
	// a change in one signal and its candidate match in the other during
	// the first, coarse pass. At 10 Hz, 8 samples tolerates the network
	// delay plus peak-localization shift.
	MatchToleranceSamples int
	// RefineToleranceSamples is the tolerance of the second pass, applied
	// after the estimated delay is removed (the paper's "estimate and
	// remove the delay" step). Genuine matches share one delay and
	// survive; coincidental matches with random offsets mostly do not.
	RefineToleranceSamples int
	// GuardSamples is the width of the head/tail boundary zones. The
	// trailing variance/RMS windows delay peaks by roughly this much, so
	// a luminance change close to a clip boundary can surface in one
	// signal but not the other. Unmatched changes inside a guard zone
	// are excused from the behaviour denominators (matched ones still
	// count).
	GuardSamples int
	// DTWDivisor rescales z4 into the range of the other features
	// (paper: 30).
	DTWDivisor float64
	// DTWBandRadius constrains the DTW warp (Sakoe-Chiba band, samples);
	// negative means unconstrained.
	DTWBandRadius int
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		MatchToleranceSamples:  12,
		RefineToleranceSamples: 2,
		GuardSamples:           18,
		DTWDivisor:             30,
		DTWBandRadius:          -1,
	}
}

// Validate checks the parameters.
func (c Config) Validate() error {
	if c.MatchToleranceSamples < 1 {
		return fmt.Errorf("features: match tolerance %d must be >= 1", c.MatchToleranceSamples)
	}
	if c.RefineToleranceSamples < 1 || c.RefineToleranceSamples > c.MatchToleranceSamples {
		return fmt.Errorf("features: refine tolerance %d outside [1, %d]", c.RefineToleranceSamples, c.MatchToleranceSamples)
	}
	if c.GuardSamples < 0 {
		return fmt.Errorf("features: negative guard %d", c.GuardSamples)
	}
	if c.DTWDivisor <= 0 {
		return fmt.Errorf("features: DTW divisor %v must be positive", c.DTWDivisor)
	}
	return nil
}

// MatchChanges greedily pairs change times of the transmitted signal (tx)
// with change times of the received signal (rx): each tx change takes the
// nearest unused rx change whose offset (rx - tx) lies in [minOffset,
// maxOffset]. Both inputs must be sorted ascending (peak finding emits
// them in order). It returns the matched index pairs (tx index, rx index).
//
// This realizes both of the paper's matching functions: F(T,R) is the
// number of matched tx changes and G(T,R) the number of matched rx
// changes; with one-to-one matching both equal len(pairs).
func MatchChanges(tx, rx []int, minOffset, maxOffset int) [][2]int {
	pairs, _ := appendMatches(nil, nil, tx, rx, minOffset, maxOffset)
	return pairs
}

// appendMatches is MatchChanges appending to pairs, with used as the
// scratch marking claimed rx changes: it is resized to len(rx), cleared,
// and returned for reuse.
func appendMatches(pairs [][2]int, used []bool, tx, rx []int, minOffset, maxOffset int) ([][2]int, []bool) {
	used = resize(used, len(rx))
	clear(used)
	for i, t := range tx {
		best := -1
		bestDist := maxOffset - minOffset + 1
		for j, r := range rx {
			if used[j] {
				continue
			}
			off := r - t
			if off > maxOffset {
				break // rx sorted: no eligible candidates further right
			}
			if off < minOffset {
				continue
			}
			d := off
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				bestDist = d
				best = j
			}
		}
		if best >= 0 {
			used[best] = true
			//lint:ignore vclint/hotpathalloc at most one pair per transmitted peak, so the result is bounded by the peaks in one window, and a reused slice stops growing at the largest count seen
			pairs = append(pairs, [2]int{i, best})
		}
	}
	return pairs, used
}

// resize returns buf with length n, reusing its backing array when it is
// large enough. The contents are not cleared.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// EstimateDelay returns the mean signed offset (rx - tx, in samples) over
// the matched pairs, rounded to the nearest sample — the paper's network
// delay estimate. Zero when there are no pairs.
func EstimateDelay(tx, rx []int, pairs [][2]int) int {
	if len(pairs) == 0 {
		return 0
	}
	var sum float64
	for _, p := range pairs {
		sum += float64(rx[p[1]] - tx[p[0]])
	}
	return int(math.Round(sum / float64(len(pairs))))
}

// Detail reports the intermediate quantities behind a feature vector,
// for diagnostics and for judging whether a window was a usable
// challenge at all.
type Detail struct {
	// TxChanges / RxChanges are the eligible significant-change counts
	// (after boundary-guard exclusion).
	TxChanges, RxChanges int
	// Matched is the number of refined matched pairs.
	Matched int
	// DelaySamples is the estimated network delay.
	DelaySamples int
}

// Extract computes the four features from the two preprocessed signals.
func Extract(tx, rx *preprocess.Result, cfg Config) (Vector, error) {
	v, _, err := ExtractWithDetail(tx, rx, cfg)
	return v, err
}

// ExtractWithDetail is Extract plus the diagnostic quantities.
func ExtractWithDetail(tx, rx *preprocess.Result, cfg Config) (Vector, Detail, error) {
	var e Extractor
	return e.Extract(tx, rx, cfg)
}

// Extractor is ExtractWithDetail with working buffers that outlive a
// call: change times, match pairs and flags, the aligned and normalized
// windows, and the DTW rows. A long-lived Extractor extracts without
// allocating once its buffers have grown to the largest window it has
// seen. Every buffer is rewritten before it is read, so reuse cannot
// change a result bit. The zero value is ready; an Extractor is not safe
// for concurrent use.
type Extractor struct {
	txTimes, rxTimes, rxShifted []int
	coarse, pairs               [][2]int
	used                        []bool // appendMatches' claimed-rx scratch
	matchedTx, matchedRx        []bool
	aligned, normTx, normRx     []float64
	dtw                         dsp.DTWRows
	dtwRuns                     int // DTW programs the last z4 ran: 1 when the diagonal bound decided it
}

// Extract is ExtractWithDetail over e's buffers.
func (e *Extractor) Extract(tx, rx *preprocess.Result, cfg Config) (Vector, Detail, error) {
	if err := cfg.Validate(); err != nil {
		return Vector{}, Detail{}, err
	}
	if tx == nil || rx == nil {
		return Vector{}, Detail{}, fmt.Errorf("features: nil preprocess result")
	}
	if len(tx.Smoothed) != len(rx.Smoothed) {
		return Vector{}, Detail{}, fmt.Errorf("features: signal lengths differ: %d vs %d", len(tx.Smoothed), len(rx.Smoothed))
	}
	if len(tx.Smoothed) < 8 {
		return Vector{}, Detail{}, fmt.Errorf("features: signals too short (%d samples)", len(tx.Smoothed))
	}

	n := len(tx.Smoothed)
	e.txTimes = dsp.AppendPeakIndices(e.txTimes[:0], tx.Peaks)
	e.rxTimes = dsp.AppendPeakIndices(e.rxTimes[:0], rx.Peaks)
	txTimes, rxTimes := e.txTimes, e.rxTimes

	// Pass 1 (coarse): pair changes within the full tolerance and
	// estimate the shared delay. Causality bounds the offset window: the
	// face response can only lag the transmitted change (network round
	// trip plus display latency), never precede it. Pass 2 (refined):
	// re-pair after removing the delay, with the tight tolerance —
	// genuine responses all share the network delay; coincidental
	// alignments rarely do.
	e.coarse, e.used = appendMatches(e.coarse[:0], e.used, txTimes, rxTimes, 0, cfg.MatchToleranceSamples)
	delay := EstimateDelay(txTimes, rxTimes, e.coarse)
	if delay < 0 {
		delay = 0
	}
	e.rxShifted = resize(e.rxShifted, len(rxTimes))
	for i, r := range rxTimes {
		e.rxShifted[i] = r - delay
	}
	e.pairs, e.used = appendMatches(e.pairs[:0], e.used, txTimes, e.rxShifted, -cfg.RefineToleranceSamples, cfg.RefineToleranceSamples)
	pairs := e.pairs

	// Denominators: matched changes always count; unmatched changes
	// count only when they lie outside the boundary guard zones, where
	// the counterpart signal had a fair chance to register them.
	e.matchedTx = resize(e.matchedTx, len(txTimes))
	e.matchedRx = resize(e.matchedRx, len(rxTimes))
	clear(e.matchedTx)
	clear(e.matchedRx)
	for _, p := range pairs {
		e.matchedTx[p[0]] = true
		e.matchedRx[p[1]] = true
	}
	nTx := countEligible(txTimes, e.matchedTx, cfg.GuardSamples, n)
	nRx := countEligible(rxTimes, e.matchedRx, cfg.GuardSamples, n)

	var v Vector
	switch {
	case nTx == 0 && nRx == 0:
		// Neither signal changed: behaviourally consistent, but the
		// verifier issued no challenge — the trend features decide.
		v.Z1, v.Z2 = 1, 1
	case nTx == 0 || nRx == 0:
		v.Z1, v.Z2 = 0, 0
	default:
		v.Z1 = float64(len(pairs)) / float64(nTx)
		v.Z2 = float64(len(pairs)) / float64(nRx)
	}

	// Trend comparison: remove the estimated delay, normalize to [0, 1],
	// split into two halves, and score each pair of segments.
	e.aligned = dsp.ShiftInto(e.aligned, rx.Smoothed, -delay)
	e.normTx = dsp.NormalizeUnitInto(e.normTx, tx.Smoothed)
	e.normRx = dsp.NormalizeUnitInto(e.normRx, e.aligned)

	t1, t2 := dsp.SplitHalves(e.normTx)
	r1, r2 := dsp.SplitHalves(e.normRx)

	c1, err := dsp.Pearson(t1, r1)
	if err != nil {
		return Vector{}, Detail{}, fmt.Errorf("features: first-half correlation: %w", err)
	}
	c2, err := dsp.Pearson(t2, r2)
	if err != nil {
		return Vector{}, Detail{}, fmt.Errorf("features: second-half correlation: %w", err)
	}
	v.Z3 = math.Min(c1, c2)

	d, runs, err := e.maxHalfDTW(t1, r1, t2, r2, cfg.DTWBandRadius)
	e.dtwRuns = runs
	if err != nil {
		return Vector{}, Detail{}, err
	}
	v.Z4 = d / cfg.DTWDivisor

	detail := Detail{
		TxChanges:    nTx,
		RxChanges:    nRx,
		Matched:      len(pairs),
		DelaySamples: delay,
	}
	return v, detail, nil
}

// maxHalfDTW returns math.Max(DTW(t1, r1), DTW(t2, r2)) under the band
// radius, bit for bit and with the same error, running the second
// dynamic program only when the first already decides the max. It also
// returns how many programs ran.
//
// Each half pairs two equal-length sequences, so the diagonal warping
// path lies inside every band, and diagonalCost sums that path's cell
// costs in the program's own order (cost + path so far). On finite
// samples no cell is NaN, and each diagonal cell is its cost plus the
// cheapest of three neighbours, its diagonal predecessor among them; as
// rounding is monotone, the distance is at most the sum. A finite sum
// implies finite samples. So a half whose sum is at most the other
// half's distance d cannot change the max: its sum bounds it, or d is
// +Inf, which math.Max returns whatever the other operand, NaN
// included. A NaN sum or distance never compares <=.
//
// The half with the larger sum runs first, as the likelier to decide.
// Only a strictly larger second sum reorders them, so the first half's
// sum is then finite and its program cannot fail: the error reported is
// the one the halves give when run in order.
func (e *Extractor) maxHalfDTW(t1, r1, t2, r2 []float64, radius int) (float64, int, error) {
	u1, u2 := diagonalCost(t1, r1), diagonalCost(t2, r2)
	if u2 > u1 {
		d2, err := e.dtw.Windowed(t2, r2, radius)
		if err != nil {
			return 0, 1, fmt.Errorf("features: second-half DTW: %w", err)
		}
		if u1 <= d2 {
			return d2, 1, nil
		}
		d1, err := e.dtw.Windowed(t1, r1, radius)
		if err != nil {
			return 0, 2, fmt.Errorf("features: first-half DTW: %w", err)
		}
		return math.Max(d1, d2), 2, nil
	}
	d1, err := e.dtw.Windowed(t1, r1, radius)
	if err != nil {
		return 0, 1, fmt.Errorf("features: first-half DTW: %w", err)
	}
	if u2 <= d1 {
		return d1, 1, nil
	}
	d2, err := e.dtw.Windowed(t2, r2, radius)
	if err != nil {
		return 0, 2, fmt.Errorf("features: second-half DTW: %w", err)
	}
	return math.Max(d1, d2), 2, nil
}

// diagonalCost sums |x[i]-y[i]| along the diagonal warping path of two
// equal-length sequences, accumulating as the DTW program does (cost +
// path so far). It is NaN, which bounds nothing, when the lengths differ
// or are zero.
func diagonalCost(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return math.NaN()
	}
	var s float64
	for i, xi := range x {
		s = math.Abs(xi-y[i]) + s
	}
	return s
}

// countEligible counts the changes that enter a behaviour denominator:
// matched ones, and unmatched ones outside the guard zones of an
// n-sample window.
func countEligible(times []int, matched []bool, guard, n int) int {
	count := 0
	for i, idx := range times {
		if matched[i] || (idx >= guard && idx < n-guard) {
			count++
		}
	}
	return count
}
