// Package lof implements the Local Outlier Factor novelty classifier the
// paper uses for fake-video detection (Section VII-A, Eqs. 7-8): the
// training set holds only legitimate users' feature vectors; the untrusted
// user's vector is scored against it, and scores above the decision
// threshold (paper default 3) flag an attacker.
//
// Note on Eq. (8): as printed, the paper's LOF omits the division by
// LRD(z); the standard definition (Breunig et al., which the paper cites)
// divides the neighbours' mean LRD by the query point's own LRD. We
// implement the standard definition — it is the one under which "values
// larger than 1" indicate outliers, as the paper's own discussion assumes.
// ScoreEq8 exposes the as-printed variant for the ablation bench.
package lof

import (
	"fmt"
	"math"
)

// Model is a trained LOF novelty detector.
type Model struct {
	data  [][]float64
	k     int
	dim   int
	kDist []float64 // k-distance of each training point within the set
	lrd   []float64 // local reachability density of each training point
}

// New trains a model on the given feature vectors with k neighbours
// (paper: k = 5). All vectors must share one dimension, and there must be
// at least k+1 of them so every training point has k neighbours besides
// itself.
func New(training [][]float64, k int) (*Model, error) {
	if k < 1 {
		return nil, fmt.Errorf("lof: k = %d must be >= 1", k)
	}
	if len(training) < k+1 {
		return nil, fmt.Errorf("lof: %d training points insufficient for k = %d", len(training), k)
	}
	dim := len(training[0])
	if dim == 0 {
		return nil, fmt.Errorf("lof: empty feature vectors")
	}
	data := make([][]float64, len(training))
	for i, v := range training {
		if len(v) != dim {
			return nil, fmt.Errorf("lof: vector %d has dimension %d, want %d", i, len(v), dim)
		}
		for j, x := range v {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("lof: vector %d component %d is not finite", i, j)
			}
		}
		data[i] = append([]float64(nil), v...)
	}
	m := &Model{data: data, k: k, dim: dim}
	m.precompute()
	return m, nil
}

// K returns the neighbour count.
func (m *Model) K() int { return m.k }

// Size returns the number of training points.
func (m *Model) Size() int { return len(m.data) }

// Dim returns the feature dimension.
func (m *Model) Dim() int { return m.dim }

// neighbor is a training point at a distance.
type neighbor struct {
	idx  int
	dist float64
}

// neighborsOf returns the k nearest training points to x, excluding the
// training index skip (-1 to exclude none), in a new slice.
func (m *Model) neighborsOf(x []float64, skip int) []neighbor {
	return m.neighborsInto(make([]neighbor, 0, m.k), x, skip)
}

// neighborsInto is neighborsOf reusing buf's backing array (it grows
// only when k exceeds its capacity). It scans all n training points and
// keeps the k best, sorted ascending by (distance, index). At the
// paper's scale (n = 20, k = 5) the scan beats a KD-tree query.
func (m *Model) neighborsInto(buf []neighbor, x []float64, skip int) []neighbor {
	ns := buf[:0]
	for i, p := range m.data {
		if i == skip {
			continue
		}
		nb := neighbor{idx: i, dist: euclidean(x, p)}
		if len(ns) < m.k || neighborLess(nb, ns[len(ns)-1]) {
			ns = insertNeighbor(ns, m.k, nb)
		}
	}
	return ns
}

// insertNeighbor inserts nb into cur, which is sorted ascending by
// (dist, idx), and drops the kth entry when cur already holds k. The
// caller checks that nb belongs: cur has room, or nb beats the kth.
func insertNeighbor(cur []neighbor, k int, nb neighbor) []neighbor {
	if len(cur) == k {
		cur = cur[:k-1]
	}
	pos := len(cur)
	for pos > 0 && neighborLess(nb, cur[pos-1]) {
		pos--
	}
	cur = append(cur, neighbor{})
	copy(cur[pos+1:], cur[pos:])
	cur[pos] = nb
	return cur
}

// neighborLess orders neighbours by distance, then training index.
func neighborLess(a, b neighbor) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	return a.idx < b.idx
}

// precompute fills kDist and lrd for every training point.
func (m *Model) precompute() {
	n := len(m.data)
	m.kDist = make([]float64, n)
	neigh := make([][]neighbor, n)
	for i, p := range m.data {
		ns := m.neighborsOf(p, i)
		neigh[i] = ns
		m.kDist[i] = ns[len(ns)-1].dist
	}
	m.lrd = make([]float64, n)
	for i := range m.data {
		m.lrd[i] = m.lrdOf(neigh[i])
	}
}

// lrdOf computes the local reachability density given a point's
// neighbours (paper Eq. 7): the inverse mean reachability distance.
func (m *Model) lrdOf(ns []neighbor) float64 {
	var sum float64
	for _, nb := range ns {
		reach := nb.dist
		if kd := m.kDist[nb.idx]; kd > reach {
			reach = kd
		}
		sum += reach
	}
	mean := sum / float64(len(ns))
	if mean == 0 {
		// Duplicated points: the density is infinite (see lofOf).
		return math.Inf(1)
	}
	return 1 / mean
}

// scoreStackNeighbors is how many neighbours Score keeps on the stack;
// a larger k spills its query buffer to the heap.
const scoreStackNeighbors = 16

// checkQuery rejects a query of the wrong dimension or with a NaN or
// ±Inf component: its distances would order the neighbours arbitrarily.
func (m *Model) checkQuery(x []float64) error {
	if len(x) != m.dim {
		return fmt.Errorf("lof: query dimension %d, want %d", len(x), m.dim)
	}
	bad := -1
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = j
			break
		}
	}
	if bad >= 0 {
		return fmt.Errorf("lof: query component %d is not finite", bad)
	}
	return nil
}

// Score returns LOF_k(x) for a query vector: ~1 for inliers, larger for
// outliers. Infinite training densities (duplicate clusters) score as 1
// when the query sits on them and +Inf when it does not.
func (m *Model) Score(x []float64) (float64, error) {
	if err := m.checkQuery(x); err != nil {
		return 0, err
	}
	var buf [scoreStackNeighbors]neighbor
	return m.lofOf(m.neighborsInto(buf[:0], x, -1)), nil
}

// ScoreEq8 returns the paper's Eq. (8) exactly as printed — the mean LRD
// of the neighbours without dividing by LRD(z). It is kept for the
// ablation bench; its scale depends on the data density, so a fixed
// threshold does not transfer across users.
func (m *Model) ScoreEq8(x []float64) (float64, error) {
	if err := m.checkQuery(x); err != nil {
		return 0, err
	}
	ns := m.neighborsOf(x, -1)
	var sum float64
	for _, nb := range ns {
		sum += m.lrd[nb.idx]
	}
	return sum / float64(len(ns)), nil
}

// TrainingScores returns the LOF score of every training point measured
// against the rest of the training set (classic LOF), useful for picking
// thresholds and for the Fig. 9 illustration.
func (m *Model) TrainingScores() []float64 {
	out := make([]float64, len(m.data))
	for i, p := range m.data {
		out[i] = m.lofOf(m.neighborsOf(p, i))
	}
	return out
}

// lofOf is the LOF of a point with neighbours ns, the mean of their
// finite LRDs over the point's own, for Score and TrainingScores.
func (m *Model) lofOf(ns []neighbor) float64 {
	lrd := m.lrdOf(ns)
	if math.IsInf(lrd, 1) {
		// The point coincides with a zero-spread cluster: perfectly inlying.
		return 1
	}
	var sum float64
	var infs int
	for _, nb := range ns {
		if math.IsInf(m.lrd[nb.idx], 1) {
			infs++
			continue
		}
		sum += m.lrd[nb.idx]
	}
	if infs == len(ns) {
		return math.Inf(1)
	}
	return (sum / float64(len(ns)-infs)) / lrd
}

func euclidean(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}
