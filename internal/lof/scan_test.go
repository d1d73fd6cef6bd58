package lof

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The k-best scan must be invisible: every neighbour list, k-distance,
// LRD and LOF score has to match the sort reference bit for bit, or the
// streaming detector's golden traces would shift under a retrain.

// sortNeighborsOf is the frozen reference k-NN query: it measures every
// training point except skip, sorts them all by (distance, index) and
// keeps the first k.
func (m *Model) sortNeighborsOf(x []float64, skip int) []neighbor {
	all := make([]neighbor, 0, len(m.data))
	for i, p := range m.data {
		if i == skip {
			continue
		}
		all = append(all, neighbor{idx: i, dist: euclidean(x, p)})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].idx < all[b].idx
	})
	if len(all) > m.k {
		all = all[:m.k]
	}
	return all
}

// pointSets is the differential corpus: clustered, degenerate, duplicated
// and collinear geometries where tie-breaking earns its keep.
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

// checkAgainstReference holds m's scan, training internals and scores to
// the sort reference on every query, with and without a skipped point.
func checkAgainstReference(t *testing.T, m *Model, queries [][]float64, label string) {
	t.Helper()
	for i, p := range m.data {
		ref := m.sortNeighborsOf(p, i)
		if math.Float64bits(m.kDist[i]) != math.Float64bits(ref[len(ref)-1].dist) {
			t.Fatalf("%s: kDist[%d] = %v, reference %v", label, i, m.kDist[i], ref[len(ref)-1].dist)
		}
		if want := m.lrdOf(ref); math.Float64bits(m.lrd[i]) != math.Float64bits(want) {
			t.Fatalf("%s: lrd[%d] = %v, reference %v", label, i, m.lrd[i], want)
		}
	}
	ts := m.TrainingScores()
	for i, p := range m.data {
		if want := m.lofOf(m.sortNeighborsOf(p, i)); math.Float64bits(ts[i]) != math.Float64bits(want) {
			t.Fatalf("%s: TrainingScores[%d] = %v, reference %v", label, i, ts[i], want)
		}
	}
	for qi, q := range queries {
		for _, skip := range []int{-1, qi % len(m.data)} {
			got, want := m.neighborsOf(q, skip), m.sortNeighborsOf(q, skip)
			if !sameNeighbors(got, want) {
				t.Fatalf("%s query %d skip %d: scan %v, reference %v", label, qi, skip, got, want)
			}
		}
		s, err := m.Score(q)
		if err != nil {
			t.Fatalf("%s query %d: %v", label, qi, err)
		}
		if want := m.lofOf(m.sortNeighborsOf(q, -1)); math.Float64bits(s) != math.Float64bits(want) {
			t.Fatalf("%s query %d: score %v, reference %v", label, qi, s, want)
		}
	}
}

func TestScanMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, pts := range pointSets(rng) {
		for _, k := range []int{1, 3, 5} {
			if len(pts) < k+1 {
				continue
			}
			m, err := New(pts, k)
			if err != nil {
				t.Fatal(err)
			}
			// Every training point plus random and adversarial probes.
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
			// tie-break.
			for q := 0; q+1 < len(pts) && q < 8; q += 2 {
				mid := make([]float64, 4)
				for j := range mid {
					mid[j] = (pts[q][j] + pts[q+1][j]) / 2
				}
				queries = append(queries, mid)
			}
			checkAgainstReference(t, m, queries, fmt.Sprintf("%s k=%d", name, k))
		}
	}
}

// TestScanRandomizedSweep drives many seeded geometries through the
// differential check, sweeping dimension and size.
func TestScanRandomizedSweep(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		dim := 1 + rng.Intn(5)
		n := 8 + rng.Intn(60)
		k := 1 + rng.Intn(6)
		if n < k+1 {
			n = k + 1
		}
		// Quantized coordinates provoke exact ties.
		draw := func() []float64 {
			p := make([]float64, dim)
			for j := range p {
				p[j] = math.Round(4*rng.NormFloat64()) / 2
			}
			return p
		}
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = draw()
		}
		m, err := New(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([][]float64, 30)
		for q := range queries {
			queries[q] = draw()
		}
		checkAgainstReference(t, m, queries, fmt.Sprintf("seed %d dim %d n %d k %d", seed, dim, n, k))
	}
}

// TestScoreBeyondStackBuffer: Score queries into a stack buffer of
// scoreStackNeighbors; a larger k must spill to the heap and still match
// the sort reference bit for bit.
func TestScoreBeyondStackBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	pts := pointSets(rng)["clustered"]
	for _, k := range []int{scoreStackNeighbors, scoreStackNeighbors + 1, scoreStackNeighbors + 9} {
		m, err := New(pts, k)
		if err != nil {
			t.Fatal(err)
		}
		queries := make([][]float64, 20)
		for q := range queries {
			queries[q] = []float64{20 * rng.Float64(), 2 * rng.Float64(), -2 * rng.Float64(), rng.Float64()}
		}
		checkAgainstReference(t, m, queries, fmt.Sprintf("k=%d", k))
	}
}
