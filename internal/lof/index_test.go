package lof

import (
	"math"
	"math/rand"
	"testing"
)

// The KD-tree index must be invisible: every neighbour list, k-distance,
// LRD and LOF score has to match the brute-force path bit for bit, or
// the streaming detector's golden traces would shift under a retrain.

// indexedAndBrute builds one indexed model and one index-free clone over
// the same points.
func indexedAndBrute(t *testing.T, pts [][]float64, k int) (*Model, *Model) {
	t.Helper()
	indexed, err := New(pts, k)
	if err != nil {
		t.Fatal(err)
	}
	brute := &Model{data: indexed.data, k: k, dim: indexed.dim}
	brute.precompute()
	return indexed, brute
}

// pointSets is the differential corpus: clustered, degenerate, duplicated
// and collinear geometries where tie-breaking and pruning earn their keep.
func pointSets(rng *rand.Rand) map[string][][]float64 {
	sets := map[string][][]float64{}

	uniform := make([][]float64, 40)
	for i := range uniform {
		uniform[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	sets["uniform"] = uniform

	clustered := make([][]float64, 0, 45)
	for c := 0; c < 3; c++ {
		centre := []float64{float64(c) * 10, float64(c), -float64(c), 0.5}
		for i := 0; i < 15; i++ {
			p := make([]float64, 4)
			for j := range p {
				p[j] = centre[j] + 0.1*rng.NormFloat64()
			}
			clustered = append(clustered, p)
		}
	}
	sets["clustered"] = clustered

	dup := make([][]float64, 12)
	for i := range dup {
		dup[i] = []float64{float64(i % 3), float64(i % 3), 0, 0} // heavy duplication
	}
	sets["duplicates"] = dup

	collinear := make([][]float64, 20)
	for i := range collinear {
		collinear[i] = []float64{float64(i), 2 * float64(i), 3 * float64(i), 0}
	}
	sets["collinear"] = collinear

	return sets
}

func sameNeighbors(a, b []neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].idx != b[i].idx || math.Float64bits(a[i].dist) != math.Float64bits(b[i].dist) {
			return false
		}
	}
	return true
}

func TestIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, pts := range pointSets(rng) {
		for _, k := range []int{1, 3, 5} {
			if len(pts) < k+1 {
				continue
			}
			indexed, brute := indexedAndBrute(t, pts, k)

			// Training-set internals must agree exactly.
			for i := range pts {
				if math.Float64bits(indexed.kDist[i]) != math.Float64bits(brute.kDist[i]) {
					t.Fatalf("%s k=%d: kDist[%d] = %v indexed, %v brute", name, k, i, indexed.kDist[i], brute.kDist[i])
				}
				if math.Float64bits(indexed.lrd[i]) != math.Float64bits(brute.lrd[i]) {
					t.Fatalf("%s k=%d: lrd[%d] = %v indexed, %v brute", name, k, i, indexed.lrd[i], brute.lrd[i])
				}
			}

			// Neighbour queries: every training point (with and without
			// self-exclusion) plus random and adversarial probes.
			queries := make([][]float64, 0, len(pts)+20)
			queries = append(queries, pts...)
			for q := 0; q < 16; q++ {
				p := make([]float64, 4)
				for j := range p {
					p[j] = 12 * (rng.Float64() - 0.5)
				}
				queries = append(queries, p)
			}
			// Probes equidistant between training points stress the
			// index tie-break.
			for q := 0; q+1 < len(pts) && q < 8; q += 2 {
				mid := make([]float64, 4)
				for j := range mid {
					mid[j] = (pts[q][j] + pts[q+1][j]) / 2
				}
				queries = append(queries, mid)
			}
			for qi, q := range queries {
				for _, skip := range []int{-1, qi % len(pts)} {
					gi := indexed.index.search(q, k, skip, nil)
					gb := brute.bruteNeighborsOf(q, skip)
					if !sameNeighbors(gi, gb) {
						t.Fatalf("%s k=%d query %d skip %d: indexed %v, brute %v", name, k, qi, skip, gi, gb)
					}
				}
			}

			// End-to-end scores.
			ts, bs := indexed.TrainingScores(), brute.TrainingScores()
			for i := range ts {
				if math.Float64bits(ts[i]) != math.Float64bits(bs[i]) {
					t.Fatalf("%s k=%d: TrainingScores[%d] = %v indexed, %v brute", name, k, i, ts[i], bs[i])
				}
			}
			for qi, q := range queries {
				si, err := indexed.Score(q)
				if err != nil {
					t.Fatalf("%s k=%d query %d: %v", name, k, qi, err)
				}
				sb, err := brute.Score(q)
				if err != nil {
					t.Fatalf("%s k=%d query %d (brute): %v", name, k, qi, err)
				}
				if math.Float64bits(si) != math.Float64bits(sb) {
					t.Fatalf("%s k=%d query %d: score %v indexed, %v brute", name, k, qi, si, sb)
				}
			}
		}
	}
}

// TestIndexRandomizedSweep drives many seeded geometries through the
// differential check, sweeping dimension and size.
func TestIndexRandomizedSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		dim := 1 + rng.Intn(5)
		n := 8 + rng.Intn(60)
		k := 1 + rng.Intn(6)
		if n < k+1 {
			n = k + 1
		}
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, dim)
			for j := range p {
				// Quantized coordinates provoke exact ties.
				p[j] = math.Round(4*rng.NormFloat64()) / 2
			}
			pts[i] = p
		}
		indexed, brute := indexedAndBrute(t, pts, k)
		for q := 0; q < 30; q++ {
			probe := make([]float64, dim)
			for j := range probe {
				probe[j] = math.Round(4*rng.NormFloat64()) / 2
			}
			gi := indexed.index.search(probe, k, -1, nil)
			gb := brute.bruteNeighborsOf(probe, -1)
			if !sameNeighbors(gi, gb) {
				t.Fatalf("seed %d dim %d n %d k %d query %d: indexed %v, brute %v", seed, dim, n, k, q, gi, gb)
			}
		}
	}
}

// TestSnapshotRebuildsIndex: a model restored from a snapshot scores
// identically to the original (the index is derived state, rebuilt on
// load).
func TestSnapshotRebuildsIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := make([][]float64, 20)
	for i := range pts {
		pts[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	m, err := New(pts, 5)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromSnapshot(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	if restored.index == nil {
		t.Fatal("restored model has no index")
	}
	probe := []float64{0.5, 0.5, 0.5, 0.5}
	a, err := m.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Score(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("restored score %v != original %v", b, a)
	}
}

// TestScoreBeyondStackBuffer: Score queries into a stack buffer of
// scoreStackNeighbors; a larger k must spill to the heap and still score
// bit-identically to the brute-force path.
func TestScoreBeyondStackBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := pointSets(rng)["clustered"]
	for _, k := range []int{scoreStackNeighbors, scoreStackNeighbors + 1, scoreStackNeighbors + 9} {
		indexed, brute := indexedAndBrute(t, pts, k)
		for q := 0; q < 20; q++ {
			probe := []float64{20 * rng.Float64(), 2 * rng.Float64(), -2 * rng.Float64(), rng.Float64()}
			si, err := indexed.Score(probe)
			if err != nil {
				t.Fatal(err)
			}
			sb, err := brute.Score(probe)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(si) != math.Float64bits(sb) {
				t.Fatalf("k=%d probe %d: score %v indexed, %v brute", k, q, si, sb)
			}
		}
	}
}
