package dsp

import "math"

// Eps is the shared tolerance for approximate float comparisons across
// the DSP chain. The pipeline's signals are luminance values and their
// low-order statistics, all within a few orders of magnitude of 1, so
// a 1e-12 floor sits far below any physically meaningful difference
// while staying far above accumulated rounding from the FIR and
// Savitzky-Golay convolutions. The golden-trace suite pins the
// end-to-end behaviour: the helpers agree exactly with the raw
// comparisons they replaced on every committed fixture.
const Eps = 1e-12

// ApproxEqual reports whether a and b are equal within Eps, scaled by
// the larger magnitude so the test stays meaningful for both small
// residuals and large raw luminance sums. Exact equality (including
// matching infinities) short-circuits true; NaN compares false to
// everything, as with ==.
//
// This is the approved helper for the vclint/floateq invariant: raw
// float ==/!= in the DSP packages must route through ApproxEqual or
// ApproxZero so tolerance policy lives in one place.
func ApproxEqual(a, b float64) bool {
	// The builtin max keeps this small enough to inline into the peak
	// finder's plateau walk, which calls it on every rising sample.
	// Its NaN and signed-zero rules cannot change the answer: the
	// magnitudes carry no sign, and a NaN operand makes a-b NaN, which
	// fails the comparison whatever the scale.
	return a == b || math.Abs(a-b) <= Eps*max(math.Abs(a), math.Abs(b), 1)
}

// ApproxZero reports whether v is within Eps of zero. Used for
// degenerate-signal guards (zero span, zero variance) where the
// fallback path is a defined constant result rather than a division
// by a vanishing denominator.
func ApproxZero(v float64) bool {
	return math.Abs(v) <= Eps
}
