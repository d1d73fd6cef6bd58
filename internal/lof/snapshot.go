package lof

import "fmt"

// Snapshot is the serializable state of a trained model: the training
// points and neighbourhood size. Derived quantities (k-distances and
// LRDs) are recomputed on load, so snapshots stay valid across internal
// refactors.
type Snapshot struct {
	K      int         `json:"k"`
	Points [][]float64 `json:"points"`
}

// Export captures the model state for persistence.
func (m *Model) Export() Snapshot {
	pts := make([][]float64, len(m.data))
	for i, p := range m.data {
		pts[i] = append([]float64(nil), p...)
	}
	return Snapshot{K: m.k, Points: pts}
}

// FromSnapshot rebuilds a model from a snapshot, revalidating everything.
func FromSnapshot(s Snapshot) (*Model, error) {
	m, err := New(s.Points, s.K)
	if err != nil {
		return nil, fmt.Errorf("lof: snapshot: %w", err)
	}
	return m, nil
}
