package features

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/chat"
	"repro/internal/dsp"
	"repro/internal/facemodel"
	"repro/internal/luminance"
	"repro/internal/preprocess"
)

// fullMaxHalfDTW is z4's distance as two full DTW programs give it: both
// halves in order, the first error winning, then math.Max.
func fullMaxHalfDTW(t1, r1, t2, r2 []float64, radius int) (float64, string) {
	d1, err := dsp.DTWWindowed(t1, r1, radius)
	if err != nil {
		return 0, fmt.Errorf("features: first-half DTW: %w", err).Error()
	}
	d2, err := dsp.DTWWindowed(t2, r2, radius)
	if err != nil {
		return 0, fmt.Errorf("features: second-half DTW: %w", err).Error()
	}
	return math.Max(d1, d2), ""
}

// TestMaxHalfDTWMatchesBothPrograms pins the diagonal-bound skip: on
// every case and band radius it returns math.Max of both full DTWs bit
// for bit, or the same error text, and it runs one program exactly where
// the bound decides.
func TestMaxHalfDTWMatchesBothPrograms(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	negNaN := math.Float64frombits(0xfff8000000000001)
	wave := []float64{0, 1, 0, 1, 0}
	shifted := []float64{1, 0, 1, 0, 1}
	flat := []float64{0.5, 0.5, 0.5, 0.5, 0.5}
	ramp := []float64{0, 0.25, 0.5, 0.75, 1}
	for _, c := range []struct {
		name           string
		t1, r1, t2, r2 []float64
		runs           int // programs run at radius 8; 0 leaves it unchecked
	}{
		// Equal sums: the first half runs first; a one-step warp takes
		// its distance below the second half's sum, so both run.
		{name: "equal bounds", t1: wave, r1: shifted, t2: wave, r2: shifted, runs: 2},
		{name: "zero distances", t1: wave, r1: wave, t2: ramp, r2: ramp, runs: 1},
		{name: "constant half", t1: flat, r1: []float64{0.2, 0.2, 0.2, 0.2, 0.2}, t2: ramp, r2: ramp, runs: 1},
		{name: "constant against wave", t1: flat, r1: wave, t2: ramp, r2: flat, runs: 1},
		// The second half's sum is larger, so it runs first and decides.
		{name: "second half dominates", t1: ramp, r1: ramp, t2: wave, r2: flat, runs: 1},
		// A warp hides the first half's large diagonal sum: the second
		// half runs first and cannot bound it, so both run.
		{name: "warp below the other sum", t1: []float64{0, 0, 1, 0, 0}, r1: []float64{0, 1, 0, 0, 0},
			t2: ramp, r2: []float64{0.1, 0.3, 0.6, 0.8, 1}, runs: 2},
		{name: "NaN in first half", t1: []float64{0, nan, 0, 1, 0}, r1: wave, t2: ramp, r2: flat, runs: 2},
		{name: "negative NaN in second half", t1: wave, r1: shifted, t2: ramp, r2: []float64{0, 0, negNaN, 0, 0}, runs: 2},
		{name: "NaN in both halves", t1: []float64{nan, 0, 0, 0, 0}, r1: wave, t2: ramp, r2: []float64{0, 0, 0, 0, nan}, runs: 2},
		{name: "Inf in first half", t1: []float64{0, 0, inf, 0, 0}, r1: wave, t2: ramp, r2: flat},
		{name: "-Inf in second half", t1: wave, r1: shifted, t2: []float64{0, -inf, 0, 0, 0}, r2: flat},
		{name: "Inf in both halves", t1: []float64{inf, 0, 0, 0, 0}, r1: wave, t2: ramp, r2: []float64{0, 0, 0, 0, -inf}},
		// Finite samples overflow the first half's distance to +Inf,
		// which decides the max even though the second half, whose
		// infinite samples give an infinite sum, has a NaN distance.
		{name: "Inf sum with NaN distance", t1: []float64{1e308, -1e308}, r1: []float64{-1e308, 1e308},
			t2: []float64{inf, 0}, r2: []float64{0, inf}},
		{name: "finite samples overflowing", t1: []float64{1e308, -1e308, 1e308}, r1: []float64{-1e308, 1e308, -1e308},
			t2: ramp[:3], r2: flat[:3]},
		// An odd window splits into halves of 5 and 6 samples.
		{name: "odd window, longer half decides", t1: ramp, r1: flat, t2: []float64{1, 0, 1, 0, 1, 0}, r2: []float64{0, 1, 0, 1, 0, 1}, runs: 1},
		{name: "odd window, shorter half decides", t1: wave, r1: flat, t2: []float64{0.5, 0.4, 0.5, 0.6, 0.5, 0.5}, r2: append(flat, 0.5), runs: 1},
		// No diagonal path bounds a pair of unequal lengths.
		{name: "pair of unequal lengths", t1: wave, r1: flat, t2: []float64{0.5, 0.4, 0.5, 0.6, 0.5, 0.5}, r2: flat, runs: 2},
	} {
		var e Extractor
		for _, radius := range []int{-1, 0, 1, 2, 8, 100} {
			want, wantErr := fullMaxHalfDTW(c.t1, c.r1, c.t2, c.r2, radius)
			got, runs, err := e.maxHalfDTW(c.t1, c.r1, c.t2, c.r2, radius)
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if gotErr != wantErr {
				t.Errorf("%s, radius %d: error %q, want %q", c.name, radius, gotErr, wantErr)
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s, radius %d: %v (%#x), want %v (%#x)", c.name, radius,
					got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if radius == 8 && c.runs != 0 && runs != c.runs {
				t.Errorf("%s: %d DTW programs at radius 8, want %d", c.name, runs, c.runs)
			}
		}
	}
}

// simulateGenuineCall renders one genuine video call as the detector
// sees it: the verifier's transmitted luminance and the luminance
// extracted from the peer's face, at 10 Hz.
func simulateGenuineCall(t *testing.T, seed int64, seconds float64) (tx, rx []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	person := facemodel.RandomPerson("peer", rng)
	verifier, err := chat.NewVerifier(chat.DefaultVerifierConfig(facemodel.RandomPerson("verifier", rng)), rng)
	if err != nil {
		t.Fatal(err)
	}
	peer, err := chat.NewGenuineSource(chat.DefaultGenuineConfig(person), rng)
	if err != nil {
		t.Fatal(err)
	}
	sess := chat.DefaultSessionConfig()
	sess.DurationSec = seconds
	tr, err := chat.RunSession(sess, verifier, peer)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := luminance.New(luminance.DefaultConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	rx, err = ex.FaceSignal(tr.Peer)
	if err != nil {
		t.Fatal(err)
	}
	return tr.T, rx
}

// TestDiagonalBoundSkipsOnGenuineCalls judges the streaming hop grid
// (150-sample windows every 5 samples, band radius 8) over simulated
// genuine calls and fails if fewer than half of the conclusive hops are
// judged with one DTW program: the skip is z4's main saving on the live
// path, and a change that stops it firing keeps every output bit.
func TestDiagonalBoundSkipsOnGenuineCalls(t *testing.T) {
	const window, hop, warmup = 150, 5, 30
	cfg := DefaultConfig()
	cfg.DTWBandRadius = 8
	pcfg := preprocess.DefaultConfig(10)
	var e Extractor
	conclusive, oneProgram := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		tx, rx := simulateGenuineCall(t, seed, 40)
		smTx, err := preprocess.SmoothSignal(tx[warmup:], pcfg)
		if err != nil {
			t.Fatal(err)
		}
		smRx, err := preprocess.SmoothSignal(rx[warmup:], pcfg)
		if err != nil {
			t.Fatal(err)
		}
		for end := window; end <= len(smTx); end += hop {
			winTx, winRx := smTx[end-window:end], smRx[end-window:end]
			resTx := preprocess.Result{Smoothed: winTx, Peaks: dsp.FindPeaks(winTx, preprocess.ScreenProminence)}
			resRx := preprocess.Result{Smoothed: winRx, Peaks: dsp.FindPeaks(winRx, preprocess.FaceProminence)}
			_, detail, err := e.Extract(&resTx, &resRx, cfg)
			if err != nil || detail.TxChanges < 1 {
				continue
			}
			conclusive++
			if e.dtwRuns == 1 {
				oneProgram++
			}
		}
	}
	t.Logf("%d of %d conclusive hops judged with one DTW program", oneProgram, conclusive)
	if conclusive < 100 {
		t.Fatalf("only %d conclusive hops: the simulation no longer exercises z4", conclusive)
	}
	if 2*oneProgram < conclusive {
		t.Fatalf("%d of %d conclusive hops judged with one DTW program, want at least half", oneProgram, conclusive)
	}
}

// FuzzMaxHalfDTW feeds maxHalfDTW halves shaped as Extract splits a
// window — two equal-length pairs, the second as long as the first or
// one sample longer — decoded bit for bit from raw bytes, and requires
// the full pair of DTW programs' max and error text.
func FuzzMaxHalfDTW(f *testing.F) {
	bits := func(vs ...float64) []byte {
		buf := make([]byte, 8*len(vs))
		for i, v := range vs {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		return buf
	}
	inf, nan := math.Inf(1), math.NaN()
	f.Add(bits(0, 1, 0, 1, 0, 1, 0, 1, 0.5, 0.5, 0.2, 0.1, 0.9, 0.3, 0.7, 0.2), false, 8)
	f.Add(bits(0, 0.25, 0.5, 0.75, 1, 0.5, 0.5, 0.5, 0.5, 0.5, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1), true, 1)
	f.Add(bits(1e308, -1e308, -1e308, 1e308, inf, 0, 0, inf), false, -1)
	f.Add(bits(nan, 0, 0, 0, math.Copysign(0, -1), 5e-324, 1, 2, 3, -inf, 0, 0), true, 0)

	var e Extractor
	f.Fuzz(func(t *testing.T, data []byte, odd bool, radius int) {
		n := len(data) / 8
		if n > 800 {
			n = 800
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		a := n / 4
		b := a
		if odd && 4*a+2 <= n {
			b++
		}
		if a == 0 {
			t.Skip("Extract's halves are never empty")
		}
		t1, r1, t2, r2 := x[:a], x[a:2*a], x[2*a:2*a+b], x[2*a+b:2*a+2*b]
		want, wantErr := fullMaxHalfDTW(t1, r1, t2, r2, radius)
		got, _, err := e.maxHalfDTW(t1, r1, t2, r2, radius)
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if gotErr != wantErr || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("got %v (%#x) error %q, want %v (%#x) error %q",
				got, math.Float64bits(got), gotErr, want, math.Float64bits(want), wantErr)
		}
	})
}
