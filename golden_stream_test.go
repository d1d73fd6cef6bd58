package repro_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"repro/guard"
	"repro/internal/chaos"
	"repro/trace"
)

// The streaming golden trace freezes the incremental hot path end to end:
// a pinned degraded stream (genuine half, reenacted half, seeded chaos
// faults) goes through the trained detector's StreamDetector, and every
// per-hop verdict must reproduce the committed trace byte for byte. This
// is the regression net under the sliding-window operators, the banded
// DTW and the LOF k-NN scan — any arithmetic drift in any of them lands
// here.
//
// Regenerate together with the other goldens:
//
//	go test -run TestGoldenStream -update .

const goldenStreamPath = "testdata/golden_stream.json"

type goldenHop struct {
	Attacker     bool       `json:"attacker"`
	Score        float64    `json:"score"`
	Features     [4]float64 `json:"features"`
	Inconclusive bool       `json:"inconclusive,omitempty"`
	Code         string     `json:"code,omitempty"`
	Reason       string     `json:"reason,omitempty"`
	Challenges   int        `json:"challenges"`
	Quality      float64    `json:"quality"`
	Gaps         int        `json:"gaps"`
	Stale        int        `json:"stale"`
}

type goldenStream struct {
	Window        int         `json:"window"`
	Hop           int         `json:"hop"`
	Warmup        int         `json:"warmup"`
	BandRadius    int         `json:"band_radius"`
	Samples       int         `json:"samples"`
	Conclusive    int         `json:"conclusive"`
	Inconclusive  int         `json:"inconclusive"`
	AttackerVotes int         `json:"attacker_votes"`
	Flagged       bool        `json:"flagged"`
	Hops          []goldenHop `json:"hops"`
}

// goldenStreamInput builds the pinned degraded stream: 30 s genuine, then
// 30 s reenacted, with seeded capture faults at 0.3 chaos intensity.
func goldenStreamInput(t *testing.T) []guard.StreamSample {
	t.Helper()
	var tx, rx []float64
	for i, kind := range []guard.PeerKind{guard.PeerGenuine, guard.PeerReenact} {
		s, err := guard.Simulate(guard.SimOptions{Seed: int64(4242 + i), Peer: kind, DurationSec: 30})
		if err != nil {
			t.Fatal(err)
		}
		tx = append(tx, s.T...)
		rx = append(rx, s.R...)
	}
	cfg, err := chaos.AtIntensity(7, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := chaos.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return inj.PerturbWindow(tx, rx)
}

func goldenStreamRun(t *testing.T) ([]guard.StreamSample, guard.StreamReport, guard.StreamConfig) {
	t.Helper()
	train, err := trace.LoadFile(goldenTrainPath)
	if err != nil {
		t.Fatalf("load training fixtures: %v", err)
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), train)
	if err != nil {
		t.Fatalf("train on fixtures: %v", err)
	}
	samples := goldenStreamInput(t)
	cfg := guard.DefaultStreamConfig()
	rep, err := det.DetectStreamSamples(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The incremental engine and the batch reference must agree exactly on
	// every hop before either is trusted as the golden source.
	batch, err := det.DetectStreamBatch(samples, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(rep.Results) {
		t.Fatalf("batch reference judged %d hops, incremental %d", len(batch), len(rep.Results))
	}
	for i := range batch {
		if batch[i] != rep.Results[i] {
			t.Fatalf("hop %d: batch %+v != incremental %+v", i, batch[i], rep.Results[i])
		}
	}
	return samples, rep, cfg
}

func encodeGoldenStream(samples []guard.StreamSample, rep guard.StreamReport, cfg guard.StreamConfig) ([]byte, error) {
	g := goldenStream{
		Window:        cfg.WindowSamples,
		Hop:           cfg.HopSamples,
		Warmup:        cfg.WarmupSamples,
		BandRadius:    cfg.DTWBandRadius,
		Samples:       len(samples),
		Conclusive:    rep.Conclusive,
		Inconclusive:  rep.Inconclusive,
		AttackerVotes: rep.AttackerVotes,
		Flagged:       rep.Flagged,
	}
	for _, r := range rep.Results {
		h := goldenHop{
			Attacker:     r.Verdict.Attacker,
			Score:        r.Verdict.Score,
			Features:     r.Verdict.Features,
			Inconclusive: r.Inconclusive,
			Challenges:   r.Challenges,
			Quality:      r.Quality,
			Gaps:         r.Gaps,
			Stale:        r.Stale,
		}
		if r.Inconclusive {
			h.Code = r.Code.String()
			h.Reason = r.Reason
		}
		g.Hops = append(g.Hops, h)
	}
	raw, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(raw, '\n'), nil
}

func TestGoldenStream(t *testing.T) {
	samples, rep, cfg := goldenStreamRun(t)
	got, err := encodeGoldenStream(samples, rep, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenStreamPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden stream trace rewritten: %s", goldenStreamPath)
	}
	want, err := os.ReadFile(goldenStreamPath)
	if err != nil {
		t.Fatalf("load golden stream trace: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("streaming trace drifted from %s (run `go test -run TestGoldenStream -update .` only for intentional pipeline changes)", goldenStreamPath)
	}
}
