package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The sliding operators promise bit-identity with their batch
// counterparts, not mere closeness: the streaming detector's verdicts are
// compared byte-for-byte against the batch reference, so a single ULP of
// drift in any stage would surface as a golden-trace diff. These tests
// therefore compare outputs through math.Float64bits (which also makes
// NaN == NaN, so poisoned spans must propagate identically).

// sameBits reports whether two samples are the identical float64,
// including NaN patterns produced by the same arithmetic.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffSignals builds the test corpus: edge shapes plus seeded random
// signals with optional NaN spans.
func diffSignals() map[string][]float64 {
	sigs := map[string][]float64{
		"empty":     nil,
		"single":    {4.5},
		"pair":      {1, -2},
		"ramp":      rampSignal(40),
		"step":      append(make([]float64, 20), rampSignal(20)...),
		"constant":  constSignal(64, 7.25),
		"nan-head":  withNaN(rampSignal(50), 0, 4),
		"nan-mid":   withNaN(rampSignal(50), 20, 6),
		"nan-tail":  withNaN(rampSignal(50), 46, 4),
		"nan-pairs": withNaN(withNaN(rampSignal(80), 10, 2), 60, 3),
	}
	rng := rand.New(rand.NewSource(1234))
	for _, n := range []int{7, 31, 150, 600} {
		sig := make([]float64, n)
		for i := range sig {
			sig[i] = 255 * rng.Float64()
		}
		sigs["rand-"+itoa(n)] = sig
	}
	return sigs
}

func rampSignal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)*1.5 - 10
	}
	return out
}

func constSignal(n int, v float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func withNaN(sig []float64, at, span int) []float64 {
	out := append([]float64(nil), sig...)
	for i := at; i < at+span && i < len(out); i++ {
		out[i] = math.NaN()
	}
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

// requireSameSeries fails when the incremental series differs from the
// batch one anywhere, bitwise.
func requireSameSeries(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: incremental emitted %d samples, batch %d", name, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: sample %d: incremental %v (bits %#x), batch %v (bits %#x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

func TestSlidingTrailingOpsMatchBatch(t *testing.T) {
	for name, sig := range diffSignals() {
		for _, window := range []int{1, 2, 3, 10, 30, 64, 200} {
			wantVar := MovingVariance(sig, window)
			wantMean := MovingMean(sig, window)
			wantRMS := MovingRMS(sig, window)
			sv, sm, sr := NewSlidingVariance(window), NewSlidingMean(window), NewSlidingRMS(window)
			gotVar := make([]float64, 0, len(sig))
			gotMean := make([]float64, 0, len(sig))
			gotRMS := make([]float64, 0, len(sig))
			for _, v := range sig {
				gotVar = append(gotVar, sv.Push(v))
				gotMean = append(gotMean, sm.Push(v))
				gotRMS = append(gotRMS, sr.Push(v))
			}
			label := name + "/w" + itoa(window)
			requireSameSeries(t, "variance "+label, gotVar, wantVar)
			requireSameSeries(t, "mean "+label, gotMean, wantMean)
			requireSameSeries(t, "rms "+label, gotRMS, wantRMS)
		}
	}
}

// runSlidingConv feeds sig through a fresh SlidingConv sample by sample
// and returns the complete output, Push emissions plus Flush.
func runSlidingConv(t *testing.T, coef, sig []float64) []float64 {
	t.Helper()
	sc, err := NewSlidingConv(coef)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, len(sig))
	for _, v := range sig {
		if y, ok := sc.Push(v); ok {
			out = append(out, y)
		}
	}
	return append(out, sc.Flush()...)
}

func TestSlidingConvMatchesLowPassFIR(t *testing.T) {
	for _, taps := range []int{3, 5, 21, 61} {
		lp, err := NewLowPassFIR(1, 10, taps)
		if err != nil {
			t.Fatal(err)
		}
		for name, sig := range diffSignals() {
			want := lp.Apply(sig)
			got := runSlidingConv(t, lp.Taps(), sig)
			requireSameSeries(t, "fir taps="+itoa(taps)+" "+name, got, want)
		}
	}
}

func TestSlidingConvMatchesSavitzkyGolay(t *testing.T) {
	for _, wo := range [][2]int{{5, 2}, {31, 3}, {15, 4}} {
		sg, err := NewSavitzkyGolay(wo[0], wo[1])
		if err != nil {
			t.Fatal(err)
		}
		for name, sig := range diffSignals() {
			want := sg.Apply(sig)
			got := runSlidingConv(t, sg.Coefficients(), sig)
			requireSameSeries(t, "savgol w="+itoa(wo[0])+" "+name, got, want)
		}
	}
}

// TestSlidingConvViaFilterMethods exercises the Sliding() constructors on
// the filter types themselves, including a signal shorter than the
// latency (everything emitted by Flush).
func TestSlidingConvViaFilterMethods(t *testing.T) {
	lp, err := NewLowPassFIR(1, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	sig := rampSignal(6) // shorter than half the window
	sc := lp.Sliding()
	if sc.Latency() != 10 {
		t.Fatalf("latency %d, want 10", sc.Latency())
	}
	var got []float64
	for _, v := range sig {
		if y, ok := sc.Push(v); ok {
			got = append(got, y)
		}
	}
	if len(got) != 0 {
		t.Fatalf("emitted %d samples before the window filled", len(got))
	}
	got = append(got, sc.Flush()...)
	requireSameSeries(t, "short signal", got, lp.Apply(sig))
	if extra := sc.Flush(); extra != nil {
		t.Fatalf("second Flush emitted %d samples", len(extra))
	}
}

func TestSlidingConvRejectsEvenCoefficients(t *testing.T) {
	if _, err := NewSlidingConv([]float64{1, 2}); err == nil {
		t.Fatal("even-length coefficients accepted")
	}
	if _, err := NewSlidingConv(nil); err == nil {
		t.Fatal("empty coefficients accepted")
	}
}

func TestSlidingConvPushAfterFlushPanics(t *testing.T) {
	sc, err := NewSlidingConv([]float64{1})
	if err != nil {
		t.Fatal(err)
	}
	sc.Push(1)
	sc.Flush()
	defer func() {
		if recover() == nil {
			t.Fatal("Push after Flush did not panic")
		}
	}()
	sc.Push(2)
}

// TestDTWWindowedFullBandBitIdentical: a band wide enough to cover the
// whole DP table must reproduce the unbanded distance exactly — the two
// loops then compute the same cells with the same arithmetic.
func TestDTWWindowedFullBandBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, lens := range [][2]int{{1, 1}, {5, 5}, {75, 75}, {40, 75}, {75, 40}, {128, 3}} {
		x, y := randSignal(rng, lens[0]), randSignal(rng, lens[1])
		want, err := DTW(x, y)
		if err != nil {
			t.Fatal(err)
		}
		full := lens[0]
		if lens[1] > full {
			full = lens[1]
		}
		got, err := DTWWindowed(x, y, full)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want) {
			t.Fatalf("lens %v: full-band %v != unbanded %v", lens, got, want)
		}
	}
}

// TestDTWWindowedBandLowerBound: any feasible band optimizes over a
// subset of the warping paths the unbanded DP considers, and each path's
// cost is accumulated by identical arithmetic — so the banded distance is
// >= the unbanded one as exact floats, never below by even an ULP.
func TestDTWWindowedBandLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, lens := range [][2]int{{20, 20}, {75, 75}, {50, 75}, {75, 50}} {
		x, y := randSignal(rng, lens[0]), randSignal(rng, lens[1])
		unbanded, err := DTW(x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, radius := range []int{0, 1, 4, 8, 16, 40} {
			banded, err := DTWWindowed(x, y, radius)
			if err != nil {
				t.Fatal(err)
			}
			if math.IsInf(banded, 0) || math.IsNaN(banded) {
				t.Fatalf("lens %v radius %d: non-finite distance %v", lens, radius, banded)
			}
			if banded < unbanded {
				t.Fatalf("lens %v radius %d: banded %v below unbanded %v", lens, radius, banded, unbanded)
			}
		}
	}
}

func randSignal(rng *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

// TestSlidingSharesDesignedCoefficients: operators built by a designer's
// Sliding share its coefficient slice (one copy per design, not per
// stream), while NewSlidingConv copies caller-owned coefficients.
func TestSlidingSharesDesignedCoefficients(t *testing.T) {
	lp, err := NewLowPassFIR(1, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := NewSavitzkyGolay(31, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := lp.Sliding(), lp.Sliding(); &a.coef[0] != &b.coef[0] || &a.coef[0] != &lp.taps[0] || &a.buf[0] == &b.buf[0] {
		t.Error("low-pass operators must share the design's taps and own their rings")
	}
	if a, b := sg.Sliding(), sg.Sliding(); &a.coef[0] != &b.coef[0] || &a.coef[0] != &sg.coef[0] {
		t.Error("Savitzky-Golay operators must share the design's coefficients")
	}
	coef := []float64{0.25, 0.5, 0.25}
	c, err := NewSlidingConv(coef)
	if err != nil {
		t.Fatal(err)
	}
	if &c.coef[0] == &coef[0] {
		t.Error("NewSlidingConv must copy caller-owned coefficients")
	}
}
