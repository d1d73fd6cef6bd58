package dsp

import (
	"encoding/binary"
	"math"
	"testing"
)

// The dsp fuzz targets follow the transport fuzzer's contract: the
// filters sit on the detection hot path fed by signals a hostile peer
// influences, so on arbitrary inputs they must never panic, and on
// domain-plausible finite inputs (luminance lives in [0, 255]; we allow
// |x| up to 1e9) every output sample must be finite.

// fuzzMagnitude bounds the fuzzed sample magnitude. Far above any real
// luminance value, far below the ~1e154 range where squaring a sample
// (moving variance) legitimately overflows float64.
const fuzzMagnitude = 1e9

// signalFromBytes decodes data into a bounded []float64, rejecting
// non-finite and out-of-range samples (returns nil to skip the case).
func signalFromBytes(data []byte, maxLen int) []float64 {
	n := len(data) / 8
	if n > maxLen {
		n = maxLen
	}
	sig := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > fuzzMagnitude {
			return nil
		}
		sig = append(sig, v)
	}
	return sig
}

// checkFinite fails the test when any output sample is not finite.
func checkFinite(t *testing.T, name string, out []float64) {
	t.Helper()
	for i, v := range out {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("%s output sample %d is %v", name, i, v)
		}
	}
}

// seedSignal packs a ramp of n samples as bytes for the seed corpus.
func seedSignal(n int) []byte {
	buf := make([]byte, n*8)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(float64(i%50)*3.1))
	}
	return buf
}

// FuzzSavGol hammers the Savitzky-Golay designer and filter: any
// (window, order) pair either fails construction cleanly or yields a
// filter whose output is finite and length-preserving.
func FuzzSavGol(f *testing.F) {
	f.Add(31, 3, seedSignal(150))
	f.Add(5, 2, seedSignal(10))
	f.Add(3, 1, []byte{})
	f.Add(0, 0, seedSignal(4))
	f.Add(-7, 9, seedSignal(4))

	f.Fuzz(func(t *testing.T, window, order int, data []byte) {
		if window > 201 || order > 12 {
			t.Skip("design cost grows with window/order; bounded domain")
		}
		sg, err := NewSavitzkyGolay(window, order)
		if err != nil {
			return // invalid parameters must fail cleanly, never panic
		}
		coef := sg.Coefficients()
		if len(coef) != window {
			t.Fatalf("got %d coefficients for window %d", len(coef), window)
		}
		checkFinite(t, "coefficients", coef)
		sig := signalFromBytes(data, 2048)
		if sig == nil {
			t.Skip("non-finite or oversized input")
		}
		out := sg.Apply(sig)
		if len(out) != len(sig) {
			t.Fatalf("output length %d, input %d", len(out), len(sig))
		}
		checkFinite(t, "SavitzkyGolay.Apply", out)
	})
}

// FuzzFindPeaks checks the peak finder never panics, never reports an
// out-of-range index, and honours the prominence floor.
func FuzzFindPeaks(f *testing.F) {
	f.Add(seedSignal(150), 10.0)
	f.Add(seedSignal(3), 0.5)
	f.Add([]byte{}, 0.0)
	f.Add(seedSignal(20), -5.0)
	f.Add(seedSignal(40), math.Inf(1))

	f.Fuzz(func(t *testing.T, data []byte, minProminence float64) {
		sig := signalFromBytes(data, 4096)
		if sig == nil {
			t.Skip("non-finite or oversized input")
		}
		peaks := FindPeaks(sig, minProminence)
		for _, p := range peaks {
			if p.Index <= 0 || p.Index >= len(sig)-1 {
				t.Fatalf("peak at boundary index %d of %d samples", p.Index, len(sig))
			}
			if p.Height != sig[p.Index] {
				t.Fatalf("peak height %v does not match sample %v", p.Height, sig[p.Index])
			}
			if math.IsNaN(p.Prominence) {
				t.Fatalf("peak %d has NaN prominence", p.Index)
			}
			if !math.IsNaN(minProminence) && p.Prominence < minProminence {
				t.Fatalf("peak %d prominence %v below floor %v", p.Index, p.Prominence, minProminence)
			}
		}
	})
}

// FuzzSlidingOps drives every sliding operator against its batch
// counterpart: feeding the signal one sample at a time (plus Flush for
// the centred convolutions) must agree bitwise with feeding it all at
// once. This is the contract the incremental detection hot path rests on.
func FuzzSlidingOps(f *testing.F) {
	f.Add(10, 21, seedSignal(150))
	f.Add(1, 3, seedSignal(5))
	f.Add(30, 31, seedSignal(40))
	f.Add(0, 0, []byte{})
	f.Add(-3, 200, seedSignal(7))

	f.Fuzz(func(t *testing.T, window, taps int, data []byte) {
		if window > 512 || taps > 513 {
			t.Skip("state size bounded to keep per-case cost sane")
		}
		sig := signalFromBytes(data, 2048)
		if sig == nil {
			t.Skip("non-finite or oversized input")
		}

		sv, sm, sr := NewSlidingVariance(window), NewSlidingMean(window), NewSlidingRMS(window)
		wantVar := MovingVariance(sig, window)
		wantMean := MovingMean(sig, window)
		wantRMS := MovingRMS(sig, window)
		for i, v := range sig {
			if got := sv.Push(v); math.Float64bits(got) != math.Float64bits(wantVar[i]) {
				t.Fatalf("variance sample %d: sliding %v, batch %v", i, got, wantVar[i])
			}
			if got := sm.Push(v); math.Float64bits(got) != math.Float64bits(wantMean[i]) {
				t.Fatalf("mean sample %d: sliding %v, batch %v", i, got, wantMean[i])
			}
			if got := sr.Push(v); math.Float64bits(got) != math.Float64bits(wantRMS[i]) {
				t.Fatalf("rms sample %d: sliding %v, batch %v", i, got, wantRMS[i])
			}
		}

		lp, err := NewLowPassFIR(1, 10, taps)
		if err != nil {
			return // invalid design: nothing further to differentiate
		}
		want := lp.Apply(sig)
		sc := lp.Sliding()
		got := make([]float64, 0, len(sig))
		for _, v := range sig {
			if y, ok := sc.Push(v); ok {
				got = append(got, y)
			}
		}
		got = append(got, sc.Flush()...)
		if len(got) != len(want) {
			t.Fatalf("sliding conv emitted %d samples, batch %d", len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("conv sample %d: sliding %v, batch %v", i, got[i], want[i])
			}
		}
	})
}

// FuzzDTWBand checks the Sakoe-Chiba band invariants on arbitrary finite
// sequences: a band covering the whole table reproduces the unbanded
// distance bitwise, and any radius (DTWWindowed widens an infeasible one
// to |n-m| itself) yields a finite distance that can only be >= the
// unbanded optimum — the band minimizes over a subset of the same
// identically-priced warping paths.
func FuzzDTWBand(f *testing.F) {
	f.Add(seedSignal(75), seedSignal(75), 8)
	f.Add(seedSignal(40), seedSignal(75), 0)
	f.Add(seedSignal(3), seedSignal(128), -1)
	f.Add([]byte{}, seedSignal(4), 2)

	f.Fuzz(func(t *testing.T, dataX, dataY []byte, radius int) {
		x := signalFromBytes(dataX, 256)
		y := signalFromBytes(dataY, 256)
		if x == nil || y == nil || len(x) == 0 || len(y) == 0 {
			t.Skip("empty or non-finite input")
		}
		unbanded, err := DTW(x, y)
		if err != nil {
			t.Fatalf("unbanded DTW: %v", err)
		}
		full := len(x)
		if len(y) > full {
			full = len(y)
		}
		gotFull, err := DTWWindowed(x, y, full)
		if err != nil {
			t.Fatalf("full-band DTW: %v", err)
		}
		if math.Float64bits(gotFull) != math.Float64bits(unbanded) {
			t.Fatalf("full band %v != unbanded %v", gotFull, unbanded)
		}
		banded, err := DTWWindowed(x, y, radius)
		if err != nil {
			t.Fatalf("radius %d: %v", radius, err)
		}
		if math.IsNaN(banded) || math.IsInf(banded, 0) {
			t.Fatalf("radius %d: non-finite distance %v", radius, banded)
		}
		if banded < unbanded {
			t.Fatalf("radius %d: banded %v below unbanded optimum %v", radius, banded, unbanded)
		}
	})
}

// FuzzLowPass drives the FIR designer and filter across arbitrary
// cutoff/rate/taps combinations and arbitrary finite signals.
func FuzzLowPass(f *testing.F) {
	f.Add(1.0, 10.0, 21, seedSignal(150))
	f.Add(0.5, 2.0, 3, seedSignal(5))
	f.Add(-1.0, 10.0, 21, []byte{})
	f.Add(5.0, 10.0, 21, seedSignal(8))
	f.Add(1.0, 0.0, 4, seedSignal(8))

	f.Fuzz(func(t *testing.T, cutoffHz, sampleRateHz float64, taps int, data []byte) {
		if taps > 1023 {
			t.Skip("tap count bounded to keep convolution cost sane")
		}
		lp, err := NewLowPassFIR(cutoffHz, sampleRateHz, taps)
		if err != nil {
			return // invalid designs must fail cleanly, never panic
		}
		got := lp.Taps()
		if len(got) != taps {
			t.Fatalf("got %d taps, want %d", len(got), taps)
		}
		checkFinite(t, "taps", got)
		sig := signalFromBytes(data, 2048)
		if sig == nil {
			t.Skip("non-finite or oversized input")
		}
		out := lp.Apply(sig)
		if len(out) != len(sig) {
			t.Fatalf("output length %d, input %d", len(out), len(sig))
		}
		checkFinite(t, "LowPassFIR.Apply", out)
	})
}

// rawSignal decodes data into at most maxLen float64s bit for bit, with
// no filtering: NaN payloads of either sign, ±Inf, −0 and subnormals all
// reach the kernel under test.
func rawSignal(data []byte, maxLen int) []float64 {
	n := min(len(data)/8, maxLen)
	sig := make([]float64, n)
	for i := range sig {
		sig[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
	}
	return sig
}

// rawBytes packs values as rawSignal reads them.
func rawBytes(vs ...float64) []byte {
	buf := make([]byte, 8*len(vs))
	for i, v := range vs {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

// hostileSeeds are seed signals built from the values a kernel rewrite
// is most likely to mishandle.
func hostileSeeds() [][]byte {
	negNaN := math.Float64frombits(0xfff8000000000001)
	nan := math.Float64frombits(0x7ff8000000000000)
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	sub, maxSub := math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff)
	return [][]byte{
		rawBytes(0, 1, nan, 2, 1),
		rawBytes(3, negNaN, 3, 0.5, 3),
		rawBytes(inf, 0, 1, 0, -inf),
		rawBytes(1e308, -1e308, 1e308, 0, -1e308),
		rawBytes(negZero, 0, sub, maxSub, negZero, -sub),
		rawBytes(0, inf, inf, 0, 1, 1, 0),
		rawBytes(nan, nan, nan),
		rawBytes(1, 2, 2+1e-13, 2, 1, 5, 5, 0),
	}
}

// FuzzDTWMatchesReference requires the banded DTW kernel, over one
// reused DTWRows, to return the frozen row-by-row program's distance bit
// for bit and its error text, on raw bit patterns, lengths up to 200 and
// radii from -1 to past n+m as well as the fuzzed radius itself. A NaN
// distance must be NaN on both sides, whatever its payload: Go leaves
// unspecified which operand's payload a float add of two NaNs returns,
// and the compiler may emit a commutative add's operands in either
// order, so two compilations of one kernel can already differ there.
func FuzzDTWMatchesReference(f *testing.F) {
	seeds := hostileSeeds()
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)], i-1)
	}
	f.Add(seedSignal(75), seedSignal(75), 8)
	f.Add(seedSignal(40), seedSignal(75), 0)
	f.Add(seedSignal(3), seedSignal(128), math.MaxInt)
	f.Add(seedSignal(9), seedSignal(2), math.MinInt)
	f.Add([]byte{}, seedSignal(4), 2)

	var rows DTWRows
	f.Fuzz(func(t *testing.T, dataX, dataY []byte, radius int) {
		x, y := rawSignal(dataX, 200), rawSignal(dataY, 200)
		span := len(x) + len(y) + 3
		for _, r := range []int{radius, (radius%span+span)%span - 1} {
			// Leave the rows dirty from a different problem first.
			_, _ = rows.Windowed(y, x, r/2)
			got, gotErr := rows.Windowed(x, y, r)
			want, wantErr := refDTWWindowed(x, y, r)
			if errText(gotErr) != errText(wantErr) {
				t.Fatalf("radius %d: error %q, reference %q", r, errText(gotErr), errText(wantErr))
			}
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("radius %d: distance %v (%#x), reference %v (%#x)",
					r, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	})
}

// FuzzPeaksMatchesReference requires AppendPeaks to return the frozen
// peak finder's peaks — index, height and prominence bits — after an
// untouched prefix, on raw bit patterns and any prominence floor.
func FuzzPeaksMatchesReference(f *testing.F) {
	for i, s := range hostileSeeds() {
		f.Add(s, []float64{0, 0.5, math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 1e-320, 10}[i])
	}
	f.Add(seedSignal(150), 10.0)
	f.Add(seedSignal(150), 0.5)
	f.Add(seedSignal(3), 0.0)

	f.Fuzz(func(t *testing.T, data []byte, minProminence float64) {
		x := rawSignal(data, 200)
		prefix := []Peak{{Index: -1, Height: math.NaN(), Prominence: -1}}
		got := AppendPeaks(prefix, x, minProminence)
		want := refAppendPeaks(nil, x, minProminence)
		if len(got) != 1+len(want) || got[0].Index != -1 {
			t.Fatalf("got %d peaks after the prefix (prefix kept: %v), reference %d", len(got)-1, got[0].Index == -1, len(want))
		}
		for i, w := range want {
			g := got[1+i]
			if g.Index != w.Index || math.Float64bits(g.Height) != math.Float64bits(w.Height) ||
				math.Float64bits(g.Prominence) != math.Float64bits(w.Prominence) {
				t.Fatalf("peak %d: %+v, reference %+v", i, g, w)
			}
		}
	})
}

// FuzzApproxEqualMatchesReference requires ApproxEqual to agree with the
// math.Max form on every pair of raw bit patterns.
func FuzzApproxEqualMatchesReference(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	for _, p := range [][2]float64{
		{0, math.Copysign(0, -1)}, {nan, nan}, {nan, 1}, {1, nan}, {inf, nan}, {nan, -inf},
		{inf, inf}, {inf, -inf}, {inf, 1e308}, {-inf, 0}, {1, 1 + 1e-13}, {1e-320, -1e-320},
		{1e308, -1e308}, {0.5, 0.5 + 1e-12}, {1e12, 1e12 + 1},
	} {
		f.Add(math.Float64bits(p[0]), math.Float64bits(p[1]))
	}
	f.Fuzz(func(t *testing.T, a, b uint64) {
		x, y := math.Float64frombits(a), math.Float64frombits(b)
		if got, want := ApproxEqual(x, y), refApproxEqual(x, y); got != want {
			t.Fatalf("ApproxEqual(%v, %v) = %v, reference %v", x, y, got, want)
		}
	})
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
