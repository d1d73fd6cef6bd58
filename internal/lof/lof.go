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
	"sort"
)

// Model is a trained LOF novelty detector.
type Model struct {
	data  [][]float64
	k     int
	dim   int
	kDist []float64 // k-distance of each training point within the set
	lrd   []float64 // local reachability density of each training point
	index *kdIndex  // precomputed k-NN index; nil falls back to brute force
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
	m.index = buildIndex(m.data)
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
// only when k exceeds its capacity). It queries the precomputed KD-tree
// index; results are bit-identical to the brute-force scan
// (index_test.go enforces this), which remains as the reference path.
func (m *Model) neighborsInto(buf []neighbor, x []float64, skip int) []neighbor {
	if m.index != nil {
		return m.index.search(x, m.k, skip, buf)
	}
	return m.bruteNeighborsOf(x, skip)
}

// bruteNeighborsOf is the reference O(n) scan.
func (m *Model) bruteNeighborsOf(x []float64, skip int) []neighbor {
	all := make([]neighbor, 0, len(m.data))
	for i, p := range m.data {
		if i == skip {
			continue
		}
		//lint:ignore vclint/hotpathalloc appends into a buffer preallocated to full capacity two lines up; no per-iteration growth
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
		// Duplicated points: density is effectively infinite; use a large
		// finite stand-in so ratios stay well-defined.
		return math.Inf(1)
	}
	return 1 / mean
}

// scoreStackNeighbors is how many neighbours Score keeps on the stack;
// a larger k spills its query buffer to the heap.
const scoreStackNeighbors = 16

// Score returns LOF_k(x) for a query vector: ~1 for inliers, larger for
// outliers. Infinite training densities (duplicate clusters) score as 1
// when the query sits on them and +Inf when it does not.
func (m *Model) Score(x []float64) (float64, error) {
	if len(x) != m.dim {
		return 0, fmt.Errorf("lof: query dimension %d, want %d", len(x), m.dim)
	}
	bad := -1
	for j, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			bad = j
			break
		}
	}
	if bad >= 0 {
		return 0, fmt.Errorf("lof: query component %d is not finite", bad)
	}
	var buf [scoreStackNeighbors]neighbor
	ns := m.neighborsInto(buf[:0], x, -1)
	queryLRD := m.lrdOf(ns)
	var sum float64
	var infs int
	for _, nb := range ns {
		if math.IsInf(m.lrd[nb.idx], 1) {
			infs++
			continue
		}
		sum += m.lrd[nb.idx]
	}
	if math.IsInf(queryLRD, 1) {
		// Query coincides with a zero-spread cluster: perfectly inlying.
		return 1, nil
	}
	if infs == len(ns) {
		return math.Inf(1), nil
	}
	meanNeighborLRD := sum / float64(len(ns)-infs)
	return meanNeighborLRD / queryLRD, nil
}

// ScoreEq8 returns the paper's Eq. (8) exactly as printed — the mean LRD
// of the neighbours without dividing by LRD(z). It is kept for the
// ablation bench; its scale depends on the data density, so a fixed
// threshold does not transfer across users.
func (m *Model) ScoreEq8(x []float64) (float64, error) {
	if len(x) != m.dim {
		return 0, fmt.Errorf("lof: query dimension %d, want %d", len(x), m.dim)
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
		ns := m.neighborsOf(p, i)
		selfLRD := m.lrdOf(ns)
		var sum float64
		var infs int
		for _, nb := range ns {
			if math.IsInf(m.lrd[nb.idx], 1) {
				infs++
				continue
			}
			sum += m.lrd[nb.idx]
		}
		switch {
		case math.IsInf(selfLRD, 1):
			out[i] = 1
		case infs == len(ns):
			out[i] = math.Inf(1)
		default:
			out[i] = (sum / float64(len(ns)-infs)) / selfLRD
		}
	}
	return out
}

func euclidean(a, b []float64) float64 {
	var acc float64
	for i := range a {
		d := a[i] - b[i]
		acc += d * d
	}
	return math.Sqrt(acc)
}
