package lof

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// cluster draws n points around a centre with the given spread.
func cluster(rng *rand.Rand, n int, centre []float64, spread float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, len(centre))
		for j, c := range centre {
			p[j] = c + spread*rng.NormFloat64()
		}
		out[i] = p
	}
	return out
}

func TestNewValidation(t *testing.T) {
	good := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}, {0.2, 0.8}}
	if _, err := New(good, 5); err != nil {
		t.Errorf("valid training rejected: %v", err)
	}
	if _, err := New(good, 0); err == nil {
		t.Error("k = 0 accepted")
	}
	if _, err := New(good[:5], 5); err == nil {
		t.Error("too few points accepted")
	}
	if _, err := New([][]float64{{1, 2}, {1}, {2, 3}, {1, 1}, {0, 0}, {2, 2}}, 2); err == nil {
		t.Error("ragged dimensions accepted")
	}
	if _, err := New([][]float64{{}, {}, {}}, 1); err == nil {
		t.Error("empty vectors accepted")
	}
	if _, err := New([][]float64{{1}, {math.NaN()}, {2}}, 1); err == nil {
		t.Error("NaN accepted")
	}
}

func TestNewCopiesTraining(t *testing.T) {
	raw := [][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}, {0.2, 0.8}}
	m, err := New(raw, 3)
	if err != nil {
		t.Fatal(err)
	}
	raw[0][0] = 999
	s, err := m.Score([]float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if s > 2 {
		t.Errorf("model affected by caller mutation: score %v", s)
	}
}

func TestInlierScoresNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := cluster(rng, 30, []float64{1, 1, 0.9, 0.2}, 0.05)
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Score([]float64{1.01, 0.99, 0.9, 0.21})
	if err != nil {
		t.Fatal(err)
	}
	if s < 0.5 || s > 1.5 {
		t.Errorf("inlier score = %v, want ~1", s)
	}
}

func TestOutlierScoresHigh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	train := cluster(rng, 30, []float64{1, 1, 0.9, 0.2}, 0.05)
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := m.Score([]float64{0.1, 0.2, -0.3, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if s < 3 {
		t.Errorf("distant outlier score = %v, want >= 3", s)
	}
}

func TestScoreMonotoneWithDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	train := cluster(rng, 40, []float64{0, 0}, 0.1)
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, d := range []float64{0.0, 0.5, 1.0, 2.0, 4.0} {
		s, err := m.Score([]float64{d, 0})
		if err != nil {
			t.Fatal(err)
		}
		if s < prev {
			t.Errorf("score at distance %v = %v, decreased from %v", d, s, prev)
		}
		prev = s
	}
}

func TestScoreDimensionMismatch(t *testing.T) {
	m, err := New([][]float64{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}, {0.2, 0.8}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Score([]float64{1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := m.Score([]float64{1, math.NaN()}); err == nil {
		t.Error("NaN query accepted")
	}
}

func TestDuplicateTrainingPoints(t *testing.T) {
	// A zero-spread cluster has infinite density; the model must stay
	// well-defined: on-cluster queries are inliers, off-cluster queries
	// are extreme outliers.
	train := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	m, err := New(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	on, err := m.Score([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if on != 1 {
		t.Errorf("on-cluster score = %v, want 1", on)
	}
	off, err := m.Score([]float64{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(off, 1) {
		t.Errorf("off-cluster score = %v, want +Inf", off)
	}
}

func TestTrainingScores(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	train := cluster(rng, 20, []float64{0, 0}, 0.1)
	// Plant one training outlier.
	train = append(train, []float64{3, 3})
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	scores := m.TrainingScores()
	if len(scores) != 21 {
		t.Fatalf("got %d scores, want 21", len(scores))
	}
	for i := 0; i < 20; i++ {
		if scores[i] > 2 {
			t.Errorf("clustered point %d scored %v, want <= 2", i, scores[i])
		}
	}
	if scores[20] < 2 {
		t.Errorf("planted outlier scored %v, want >= 2", scores[20])
	}
}

func TestPaperFig9Shape(t *testing.T) {
	// Fig. 9: on a 2-feature plane the legit cluster scores < 1.5, the
	// attacker ~2+, and tau = 1.8 separates them.
	rng := rand.New(rand.NewSource(5))
	legit := cluster(rng, 20, []float64{0.93, 0.9}, 0.05)
	m, err := New(legit, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		probe := []float64{0.93 + 0.04*rng.NormFloat64(), 0.9 + 0.04*rng.NormFloat64()}
		s, err := m.Score(probe)
		if err != nil {
			t.Fatal(err)
		}
		if s >= 1.8 {
			t.Errorf("legit probe %v scored %v, want < 1.8", probe, s)
		}
	}
	attacker := []float64{0.3, 0.25}
	s, err := m.Score(attacker)
	if err != nil {
		t.Fatal(err)
	}
	if s < 1.8 {
		t.Errorf("attacker scored %v, want >= 1.8", s)
	}
}

func TestScoreEq8Variant(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	train := cluster(rng, 20, []float64{0, 0}, 0.1)
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Eq. (8) as printed returns a density, not a ratio: it *decreases*
	// for outliers (their neighbours' densities are unchanged but the
	// mean is over the same cluster) — and critically it is scale
	// dependent. Just verify it is positive and differs from Score.
	in, err := m.ScoreEq8([]float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if in <= 0 {
		t.Errorf("Eq8 score = %v, want > 0", in)
	}
	if _, err := m.ScoreEq8([]float64{0}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// A non-finite component is rejected with Score's error, not scored
	// by whatever order the search happened to visit the points in.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := []float64{0, bad}
		_, errEq8 := m.ScoreEq8(q)
		_, errScore := m.Score(q)
		if errEq8 == nil || errScore == nil || errEq8.Error() != errScore.Error() {
			t.Errorf("query %v: ScoreEq8 err = %v, Score err = %v, want one shared error", q, errEq8, errScore)
		}
	}
}

func TestAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := cluster(rng, 12, []float64{0, 0, 0}, 0.1)
	m, err := New(train, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m.K() != 4 || m.Size() != 12 || m.Dim() != 3 {
		t.Errorf("accessors: k=%d size=%d dim=%d", m.K(), m.Size(), m.Dim())
	}
}

// Property: LOF scores are finite and positive for well-spread training
// sets and arbitrary bounded queries.
func TestPropertyScoresFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	train := cluster(rng, 25, []float64{0.5, 0.5}, 0.2)
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		x := []float64{math.Mod(a, 10), math.Mod(b, 10)}
		if math.IsNaN(x[0]) || math.IsNaN(x[1]) {
			return true
		}
		s, err := m.Score(x)
		if err != nil {
			return false
		}
		return s > 0 && !math.IsNaN(s) && !math.IsInf(s, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: scaling every training point and the query by the same factor
// leaves the LOF ratio unchanged (scale invariance of the standard LOF).
func TestPropertyScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base := cluster(rng, 20, []float64{1, 2}, 0.3)
	query := []float64{2.5, 0.5}
	m1, err := New(base, 5)
	if err != nil {
		t.Fatal(err)
	}
	s1, err := m1.Score(query)
	if err != nil {
		t.Fatal(err)
	}
	const scale = 7.3
	scaled := make([][]float64, len(base))
	for i, p := range base {
		scaled[i] = []float64{p[0] * scale, p[1] * scale}
	}
	m2, err := New(scaled, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := m2.Score([]float64{query[0] * scale, query[1] * scale})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1-s2) > 1e-9 {
		t.Errorf("LOF not scale invariant: %v vs %v", s1, s2)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	train := cluster(rng, 20, []float64{0.5, 0.5}, 0.1)
	m, err := New(train, 5)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := FromSnapshot(m.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range [][]float64{{0.5, 0.5}, {1.5, -0.2}, {0.45, 0.61}} {
		a, err := m.Score(probe)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Score(probe)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("probe %v: scores differ after snapshot: %v vs %v", probe, a, b)
		}
	}
}

func TestSnapshotExportCopies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	train := cluster(rng, 10, []float64{0, 0}, 0.1)
	m, err := New(train, 3)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Export()
	snap.Points[0][0] = 999
	again := m.Export()
	if again.Points[0][0] == 999 {
		t.Error("Export aliases internal storage")
	}
}

func TestFromSnapshotInvalid(t *testing.T) {
	if _, err := FromSnapshot(Snapshot{K: 0, Points: nil}); err == nil {
		t.Error("invalid snapshot accepted")
	}
}
