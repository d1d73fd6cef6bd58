package features

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/preprocess"
)

// sameVector compares two feature vectors bit for bit.
func sameVector(a, b Vector) bool {
	return math.Float64bits(a.Z1) == math.Float64bits(b.Z1) &&
		math.Float64bits(a.Z2) == math.Float64bits(b.Z2) &&
		math.Float64bits(a.Z3) == math.Float64bits(b.Z3) &&
		math.Float64bits(a.Z4) == math.Float64bits(b.Z4)
}

// dirtyExtractor returns an Extractor whose every buffer already holds
// stale contents with spare capacity, as a pooled one does after judging
// a busier window.
func dirtyExtractor() *Extractor {
	nan := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	ints := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = 1000 + i
		}
		return out
	}
	trues := func(n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = true
		}
		return out
	}
	pairs := make([][2]int, 12)
	for i := range pairs {
		pairs[i] = [2]int{i, i}
	}
	e := &Extractor{
		txTimes: ints(12), rxTimes: ints(12), rxShifted: ints(12),
		coarse: pairs, pairs: append([][2]int(nil), pairs...),
		used: trues(12), matchedTx: trues(12), matchedRx: trues(12),
		aligned: nan(200), normTx: nan(200), normRx: nan(200),
	}
	// Leave NaN in the DTW rows, sized past any window below.
	_, _ = e.dtw.Windowed(nan(200), nan(200), -1)
	return e
}

// TestExtractorReuseMatchesExtractWithDetail drives one Extractor across
// windows of 150, 97 (odd halves) and 150 samples — busy, sparse, flat
// and delayed — and demands ExtractWithDetail's output bit for bit at
// every call, banded and unbanded, starting from dirty buffers.
func TestExtractorReuseMatchesExtractWithDetail(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type window struct {
		name   string
		tx, rx []float64
	}
	windows := []window{
		{"busy-150",
			stepSignal(150, map[int]float64{20: 60, 45: -60, 70: 60, 95: -60, 120: 60}, 120, 0.5, rng),
			stepSignal(150, map[int]float64{23: 20, 48: -20, 73: 20, 98: -20, 123: 20}, 105, 0.4, rng)},
		{"sparse-97",
			stepSignal(97, map[int]float64{40: 60}, 120, 0.5, rng),
			stepSignal(97, map[int]float64{44: 20}, 105, 0.4, rng)},
		{"flat-rx-150",
			stepSignal(150, map[int]float64{40: 60, 100: -60}, 120, 0.5, rng),
			stepSignal(150, nil, 105, 0.4, rng)},
		{"odd-unrelated-97",
			stepSignal(97, map[int]float64{25: 60, 60: -60}, 120, 0.5, rng),
			stepSignal(97, map[int]float64{50: 20, 80: -20}, 105, 0.4, rng)},
		{"delayed-150",
			stepSignal(150, map[int]float64{30: 60, 80: -60, 120: 60}, 120, 0.5, rng),
			stepSignal(150, map[int]float64{36: 20, 86: -20, 126: 20}, 105, 0.4, rng)},
	}
	banded := DefaultConfig()
	banded.DTWBandRadius = 8
	for _, cfg := range []Config{DefaultConfig(), banded} {
		e := dirtyExtractor()
		for pass := 0; pass < 2; pass++ {
			for _, w := range windows {
				txRes := process(t, w.tx, preprocess.ScreenProminence)
				rxRes := process(t, w.rx, preprocess.FaceProminence)
				wantV, wantD, wantErr := ExtractWithDetail(txRes, rxRes, cfg)
				gotV, gotD, err := e.Extract(txRes, rxRes, cfg)
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("%s radius %d: error %v, want %v", w.name, cfg.DTWBandRadius, err, wantErr)
				}
				if !sameVector(gotV, wantV) || gotD != wantD {
					t.Fatalf("%s radius %d pass %d: reused extractor gave %+v %+v, want %+v %+v",
						w.name, cfg.DTWBandRadius, pass, gotV, gotD, wantV, wantD)
				}
				// A failed call in between must not poison the next one.
				mismatched := &preprocess.Result{Smoothed: make([]float64, len(w.tx)-1)}
				if _, _, err := e.Extract(txRes, mismatched, cfg); err == nil {
					t.Fatal("length mismatch accepted")
				}
			}
		}
	}
}
