package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// declared is the part of BENCHMARK.json the program must agree with.
type declared struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmokeEveryWorkload runs every workload at smoke size, untraced and
// traced, and checks that each prints exactly the metrics BENCHMARK.json
// declares for its mode, with the declared units, and fails nothing.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at smoke size")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec declared
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		run, ok := workloads[w.Name]
		if !ok {
			t.Errorf("workload %q is declared but not implemented", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			rep, err := run(params{workload: w.Name, seed: 5, seconds: 1.5, traced: traced, smoke: true, spansDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if rep.ops.attempted() == 0 || rep.ops.failed() != 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed", w.Name, traced, rep.ops.failed(), rep.ops.attempted())
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s traced=%v: %s in %s, declared %s", w.Name, traced, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s traced=%v: %s = %v", w.Name, traced, m.Name, got.Value)
				}
			}
		}
	}
}
