package repro_test

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"repro/guard"
	"repro/trace"
)

// The golden-trace regression suite freezes a full end-to-end run of the
// defense: recorded sessions (trace.Session fixtures under testdata/) go
// through Train and Detect, and the resulting feature vectors, LOF scores
// and verdicts must match the committed expectations. Any change to the
// preprocessing chain, the feature definitions or the classifier that
// shifts a number shows up here before it shows up in the figures.
//
// Regenerate the fixtures after an intentional pipeline change with
//
//	go test -run TestGoldenTraces -update .
//
// and review the diff of testdata/*.json like any other code change.

var updateGolden = flag.Bool("update", false, "rewrite golden-trace fixtures and expectations")

const (
	goldenTrainPath  = "testdata/golden_train.json"
	goldenProbesPath = "testdata/golden_probes.json"
	goldenExpectPath = "testdata/golden_expect.json"

	// goldenTol bounds the drift allowed in scores and features. The
	// pipeline is deterministic, so this only absorbs harmless
	// reassociation from compiler or math-library updates.
	goldenTol = 1e-9
)

type goldenVerdict struct {
	Ground   trace.Label `json:"ground"`
	Attacker bool        `json:"attacker"`
	Score    float64     `json:"score"`
	Features [4]float64  `json:"features"`
}

type goldenExpect struct {
	Threshold float64         `json:"threshold"`
	Flagged   bool            `json:"flagged"`
	Probes    []goldenVerdict `json:"probes"`
}

// goldenSimulate produces the fixture sessions from pinned seeds: a
// genuine enrollment set plus a mixed probe set covering both attacker
// families the paper evaluates (reenactment and replay).
func goldenSimulate(t *testing.T) (train, probes []trace.Session) {
	t.Helper()
	train, err := guard.SimulateMany(guard.SimOptions{Seed: 42, Peer: guard.PeerGenuine}, 10)
	if err != nil {
		t.Fatal(err)
	}
	kinds := []guard.PeerKind{
		guard.PeerGenuine, guard.PeerReenact, guard.PeerReplay,
		guard.PeerReenact, guard.PeerGenuine,
	}
	for i, kind := range kinds {
		s, err := guard.Simulate(guard.SimOptions{Seed: int64(4200 + i), Peer: kind})
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, s)
	}
	return train, probes
}

func TestGoldenTraces(t *testing.T) {
	if *updateGolden {
		regenerateGolden(t)
	}

	train, err := trace.LoadFile(goldenTrainPath)
	if err != nil {
		t.Fatalf("load training fixtures: %v", err)
	}
	probes, err := trace.LoadFile(goldenProbesPath)
	if err != nil {
		t.Fatalf("load probe fixtures: %v", err)
	}
	raw, err := os.ReadFile(goldenExpectPath)
	if err != nil {
		t.Fatalf("load expectations: %v", err)
	}
	var want goldenExpect
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse expectations: %v", err)
	}
	if len(want.Probes) != len(probes) {
		t.Fatalf("%d expectations for %d probes", len(want.Probes), len(probes))
	}

	det, err := guard.TrainFromTraces(guard.DefaultOptions(), train)
	if err != nil {
		t.Fatalf("train on fixtures: %v", err)
	}
	if got := det.Threshold(); math.Abs(got-want.Threshold) > goldenTol {
		t.Errorf("threshold = %v, golden %v", got, want.Threshold)
	}

	verdicts := make([]guard.Verdict, len(probes))
	for i, s := range probes {
		v, err := det.DetectTrace(s)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		verdicts[i] = v
		w := want.Probes[i]
		if s.Ground != w.Ground {
			t.Errorf("probe %d ground = %q, golden %q", i, s.Ground, w.Ground)
		}
		if v.Attacker != w.Attacker {
			t.Errorf("probe %d (%s): attacker = %v, golden %v", i, s.Ground, v.Attacker, w.Attacker)
		}
		if math.Abs(v.Score-w.Score) > goldenTol {
			t.Errorf("probe %d (%s): score = %v, golden %v", i, s.Ground, v.Score, w.Score)
		}
		for j := range v.Features {
			if math.Abs(v.Features[j]-w.Features[j]) > goldenTol {
				t.Errorf("probe %d (%s): z%d = %v, golden %v", i, s.Ground, j+1, v.Features[j], w.Features[j])
			}
		}
	}

	flagged, err := det.CombineVerdicts(verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if flagged != want.Flagged {
		t.Errorf("CombineVerdicts = %v, golden %v", flagged, want.Flagged)
	}
}

// regenerateGolden rewrites the fixtures and expectations from the
// pinned simulation seeds.
func regenerateGolden(t *testing.T) {
	t.Helper()
	train, probes := goldenSimulate(t)
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(goldenTrainPath, train); err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(goldenProbesPath, probes); err != nil {
		t.Fatal(err)
	}

	det, err := guard.TrainFromTraces(guard.DefaultOptions(), train)
	if err != nil {
		t.Fatal(err)
	}
	expect := goldenExpect{Threshold: det.Threshold()}
	var verdicts []guard.Verdict
	for _, s := range probes {
		v, err := det.DetectTrace(s)
		if err != nil {
			t.Fatal(err)
		}
		verdicts = append(verdicts, v)
		expect.Probes = append(expect.Probes, goldenVerdict{
			Ground:   s.Ground,
			Attacker: v.Attacker,
			Score:    v.Score,
			Features: v.Features,
		})
	}
	expect.Flagged, err = det.CombineVerdicts(verdicts)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.MarshalIndent(expect, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenExpectPath, append(raw, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("golden fixtures rewritten: %s, %s, %s", goldenTrainPath, goldenProbesPath, goldenExpectPath)
}

// TestGoldenFixturesCommitted guards against an -update run that was
// never committed: the fixtures must exist in the repository.
func TestGoldenFixturesCommitted(t *testing.T) {
	for _, p := range []string{goldenTrainPath, goldenProbesPath, goldenExpectPath, goldenStreamPath} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing golden fixture %s (run `go test -run TestGoldenTraces -update .`): %v", p, err)
		}
	}
}
