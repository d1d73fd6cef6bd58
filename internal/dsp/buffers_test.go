package dsp

import (
	"math"
	"math/rand"
	"testing"
)

// The buffer-taking forms (AppendPeaks, AppendPeakIndices,
// NormalizeUnitInto, ShiftInto, DTWRows.Windowed) back the allocating
// functions and the live hop's pooled scratch. A pooled buffer arrives
// holding whatever the previous hop left in it, so each form must give
// the allocating form's output bit for bit from a dirty destination:
// NaN-filled, longer than needed, or holding stale values.

// dirtyFloats returns a buffer of length n whose backing array is longer
// than n and filled with NaN.
func dirtyFloats(n int) []float64 {
	buf := make([]float64, n+7)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return buf[:n]
}

// staleFloats returns a slice of length n over a larger backing array
// filled with finite garbage, as a previous, longer window leaves it.
func staleFloats(n int) []float64 {
	buf := make([]float64, n+40)
	for i := range buf {
		buf[i] = 1e6 + float64(i)
	}
	return buf[:n]
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: sample %d is %v, want %v", what, i, got[i], want[i])
		}
	}
}

// bufferSignals is the corpus: a constant signal (the zero-span branch),
// a ramp, noise, a short and an odd-length signal.
func bufferSignals() map[string][]float64 {
	rng := rand.New(rand.NewSource(11))
	ramp := make([]float64, 150)
	for i := range ramp {
		ramp[i] = float64(i) * 0.37
	}
	constant := make([]float64, 150)
	for i := range constant {
		constant[i] = 42.5
	}
	return map[string][]float64{
		"constant": constant,
		"ramp":     ramp,
		"noise":    randSignal(rng, 150),
		"odd":      randSignal(rng, 97),
		"short":    {3, -1},
		"empty":    {},
	}
}

func TestNormalizeUnitIntoDirtyDestination(t *testing.T) {
	for name, x := range bufferSignals() {
		want := NormalizeUnit(x)
		sameFloats(t, name+"/nan", NormalizeUnitInto(dirtyFloats(len(x)), x), want)
		sameFloats(t, name+"/stale", NormalizeUnitInto(staleFloats(len(x) + 9)[:0], x), want)
		sameFloats(t, name+"/nil", NormalizeUnitInto(nil, x), want)
		alias := append([]float64(nil), x...)
		sameFloats(t, name+"/alias", NormalizeUnitInto(alias, alias), want)
	}
}

// TestNormalizeUnitIntoConstantZeroes: a constant signal has no span to
// normalize by and must come back all zeros, not as whatever the dirty
// destination held.
func TestNormalizeUnitIntoConstantZeroes(t *testing.T) {
	x := []float64{7, 7, 7, 7, 7}
	for _, dst := range [][]float64{dirtyFloats(len(x)), staleFloats(len(x))} {
		for i, v := range NormalizeUnitInto(dst, x) {
			if math.Float64bits(v) != 0 {
				t.Fatalf("constant signal normalized to %v at %d, want +0", v, i)
			}
		}
	}
}

// TestShiftIntoMatchesReference compares the block-copy shift with the
// per-sample reference at every shift that pads, copies or does both,
// and at shifts far past the signal.
func TestShiftIntoMatchesReference(t *testing.T) {
	for n := 1; n <= 12; n++ {
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i*i) - 0.5
		}
		x[n/2] = math.NaN()
		for _, s := range append([]int{-1 << 40, 1 << 40}, rangeInts(-n-3, n+3)...) {
			sameFloats(t, "shift", ShiftInto(dirtyFloats(n), x, s), refShiftInto(nil, x, s))
		}
	}
}

func rangeInts(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

func TestShiftIntoDirtyDestination(t *testing.T) {
	for name, x := range bufferSignals() {
		for _, delay := range []int{-200, -9, -1, 0, 1, 9, 200} {
			want := Shift(x, delay)
			sameFloats(t, name+"/nan", ShiftInto(dirtyFloats(len(x)), x, delay), want)
			sameFloats(t, name+"/stale", ShiftInto(staleFloats(len(x) + 3)[:1], x, delay), want)
		}
	}
}

func TestAppendPeaksOntoNonEmpty(t *testing.T) {
	for name, x := range bufferSignals() {
		for _, prom := range []float64{0, 0.5, 10} {
			want := FindPeaks(x, prom)
			prefix := []Peak{{Index: -1, Height: math.NaN(), Prominence: 3}, {Index: 999}}
			// Spare capacity holding stale peaks must be overwritten.
			buf := append(make([]Peak, 0, 64), prefix...)
			stale := buf[:cap(buf)]
			for i := len(prefix); i < len(stale); i++ {
				stale[i] = Peak{Index: 12345, Height: math.NaN()}
			}
			got := AppendPeaks(buf, x, prom)
			if len(got) != len(prefix)+len(want) {
				t.Fatalf("%s prom %v: %d peaks after a %d-peak prefix, want %d", name, prom, len(got), len(prefix), len(want))
			}
			if got[0].Index != -1 || got[1].Index != 999 {
				t.Fatalf("%s prom %v: prefix overwritten: %+v", name, prom, got[:2])
			}
			for i, p := range want {
				g := got[len(prefix)+i]
				if g.Index != p.Index || !sameBits(g.Height, p.Height) || !sameBits(g.Prominence, p.Prominence) {
					t.Fatalf("%s prom %v: peak %d is %+v, want %+v", name, prom, i, g, p)
				}
			}
			indices := AppendPeakIndices([]int{-7}, want)
			if len(indices) != len(want)+1 || indices[0] != -7 {
				t.Fatalf("%s prom %v: AppendPeakIndices = %v", name, prom, indices)
			}
			for i, p := range want {
				if indices[i+1] != p.Index {
					t.Fatalf("%s prom %v: index %d is %d, want %d", name, prom, i, indices[i+1], p.Index)
				}
			}
		}
	}
}

// TestDTWRowsDirty: one DTWRows reused across lengths, radii and dirty
// row contents reproduces the pooled DTWWindowed (and, unbanded, DTW)
// bit for bit.
func TestDTWRowsDirty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var rows DTWRows
	for _, lens := range [][2]int{{75, 75}, {49, 48}, {75, 75}, {3, 128}, {128, 3}, {75, 75}} {
		x, y := randSignal(rng, lens[0]), randSignal(rng, lens[1])
		for _, radius := range []int{-1, 0, 1, 8, 300} {
			want, wantErr := DTWWindowed(x, y, radius)
			for _, fill := range []float64{math.NaN(), math.Inf(-1), -1e300} {
				// Dirty every cell the rows hold, including spare capacity.
				for _, r := range [][]float64{rows.a[:cap(rows.a)], rows.b[:cap(rows.b)]} {
					for i := range r {
						r[i] = fill
					}
				}
				got, err := rows.Windowed(x, y, radius)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("lens %v radius %d: error %v, pooled %v", lens, radius, err, wantErr)
				}
				if !sameBits(got, want) {
					t.Fatalf("lens %v radius %d fill %v: %v, pooled %v", lens, radius, fill, got, want)
				}
			}
			if radius < 0 {
				unbanded, err := DTW(x, y)
				if err != nil || !sameBits(unbanded, want) {
					t.Fatalf("lens %v: DTW %v (%v), DTWWindowed(-1) %v", lens, unbanded, err, want)
				}
			}
		}
	}
}
