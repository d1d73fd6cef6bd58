// Package streambench measures the incremental streaming hot path
// against the two batch alternatives and freezes the result as the
// repository's BENCH_streaming.json artifact.
//
// Three paths judge the identical hop grid over the identical stream:
//
//   - incremental: guard.StreamDetector — O(1)-per-sample sliding filter
//     chains, Sakoe-Chiba-banded DTW, k-best-scan LOF. The live default.
//   - per_window: the pre-incremental hot path — every hop re-runs the
//     full batch pipeline (filter chain, unbanded DTW) on the raw
//     trailing window via Detector.Detect.
//   - batch_reference: guard.DetectStreamBatch — one batch pass over the
//     whole stream, the correctness reference the differential suite
//     pins the incremental path against.
//
// Raw ns/op is machine-bound, so reports carry a calibration workload
// (a fixed FIR convolution) and regression checks compare
// calibration-normalized ns/sample, not wall-clock.
package streambench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/guard"
	"repro/internal/dsp"
)

// Schema identifies the report format.
const Schema = "bench-streaming/v1"

// Spec pins the benchmark workload.
type Spec struct {
	// Seed drives both the training set and the judged stream.
	Seed int64
	// Sessions and SessionSec size the judged stream: Sessions genuine
	// clips of SessionSec each, concatenated.
	Sessions   int
	SessionSec float64
	// Stream is the hop configuration all three paths share.
	Stream guard.StreamConfig
}

// DefaultSpec is the committed-baseline workload: a one-minute stream at
// the paper-default window and hop.
func DefaultSpec() Spec {
	return Spec{Seed: 99, Sessions: 2, SessionSec: 30, Stream: guard.DefaultStreamConfig()}
}

// Fixture is a prepared workload: a trained detector plus the stream.
type Fixture struct {
	Spec    Spec
	Det     *guard.Detector
	Samples []guard.StreamSample
	Tx, Rx  []float64
	// Hops is the number of windows the hop grid judges.
	Hops int
}

// NewFixture trains the detector and synthesizes the judged stream.
func NewFixture(spec Spec) (*Fixture, error) {
	training, err := guard.SimulateMany(guard.SimOptions{Seed: spec.Seed, Peer: guard.PeerGenuine}, 8)
	if err != nil {
		return nil, fmt.Errorf("streambench: %w", err)
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		return nil, fmt.Errorf("streambench: %w", err)
	}
	fx := &Fixture{Spec: spec, Det: det}
	for i := 0; i < spec.Sessions; i++ {
		s, err := guard.Simulate(guard.SimOptions{
			Seed: spec.Seed + 1000 + int64(i), Peer: guard.PeerGenuine, DurationSec: spec.SessionSec,
		})
		if err != nil {
			return nil, fmt.Errorf("streambench: %w", err)
		}
		fx.Tx = append(fx.Tx, s.T...)
		fx.Rx = append(fx.Rx, s.R...)
	}
	for i := range fx.Tx {
		fx.Samples = append(fx.Samples, guard.StreamSample{Transmitted: fx.Tx[i], Received: fx.Rx[i]})
	}
	cfg := spec.Stream
	judged := len(fx.Samples) - cfg.WarmupSamples
	if judged >= cfg.WindowSamples {
		fx.Hops = (judged-cfg.WindowSamples)/cfg.HopSamples + 1
	}
	if fx.Hops == 0 {
		return nil, fmt.Errorf("streambench: spec yields no hops (%d samples)", len(fx.Samples))
	}
	return fx, nil
}

// RunIncremental judges the stream through the StreamDetector and
// returns the hop count.
func (fx *Fixture) RunIncremental() (int, error) {
	rep, err := fx.Det.DetectStreamSamples(fx.Samples, fx.Spec.Stream)
	if err != nil {
		return 0, err
	}
	return len(rep.Results), nil
}

// RunPerWindow judges the identical hop grid the pre-incremental way:
// every hop re-runs the full batch pipeline on the raw trailing window.
// Per-window verdict errors (a window without a challenge, say) still
// count as judged hops — the legacy path paid for them too.
func (fx *Fixture) RunPerWindow() int {
	cfg := fx.Spec.Stream
	tx := fx.Tx[cfg.WarmupSamples:]
	rx := fx.Rx[cfg.WarmupSamples:]
	hops := 0
	for e := cfg.WindowSamples - 1; e < len(tx); e += cfg.HopSamples {
		first := e - cfg.WindowSamples + 1
		_, _ = fx.Det.Detect(tx[first:e+1], rx[first:e+1]) // timing-only: errors are verdict-level
		hops++
	}
	return hops
}

// RunBatchReference judges the stream through DetectStreamBatch.
func (fx *Fixture) RunBatchReference() (int, error) {
	res, err := fx.Det.DetectStreamBatch(fx.Samples, fx.Spec.Stream)
	if err != nil {
		return 0, err
	}
	return len(res), nil
}

// PathStats is one path's measurement over the fixture.
type PathStats struct {
	NsPerOp       float64 `json:"ns_per_op"`
	NsPerSample   float64 `json:"ns_per_sample"`
	NsPerHop      float64 `json:"ns_per_hop"`
	WindowsPerSec float64 `json:"windows_per_sec"`
	AllocsPerOp   float64 `json:"allocs_per_op"`
	AllocsPerHop  float64 `json:"allocs_per_hop"`
	BytesPerHop   float64 `json:"bytes_per_hop"`
}

// Report is the BENCH_streaming.json artifact.
type Report struct {
	Schema     string `json:"schema"`
	GoOS       string `json:"go_os"`
	GoArch     string `json:"go_arch"`
	NumCPU     int    `json:"num_cpu"`
	Window     int    `json:"window"`
	Hop        int    `json:"hop"`
	BandRadius int    `json:"band_radius"`
	Samples    int    `json:"samples"`
	Hops       int    `json:"hops"`
	// CalibrationNs is the duration of a fixed FIR workload on the
	// measuring machine; regression checks divide by it so a committed
	// baseline transfers across hardware.
	CalibrationNs float64              `json:"calibration_ns"`
	Paths         map[string]PathStats `json:"paths"`
	// SpeedupWindowsPerSec is incremental windows/sec over per_window
	// windows/sec — the headline the acceptance gate reads.
	SpeedupWindowsPerSec float64 `json:"speedup_windows_per_sec"`
}

// stats converts one testing.Benchmark result over the fixture.
func (fx *Fixture) stats(r testing.BenchmarkResult) PathStats {
	ns := float64(r.NsPerOp())
	hops := float64(fx.Hops)
	return PathStats{
		NsPerOp:       ns,
		NsPerSample:   ns / float64(len(fx.Samples)),
		NsPerHop:      ns / hops,
		WindowsPerSec: hops / (ns / 1e9),
		AllocsPerOp:   float64(r.AllocsPerOp()),
		AllocsPerHop:  float64(r.AllocsPerOp()) / hops,
		BytesPerHop:   float64(r.AllocedBytesPerOp()) / hops,
	}
}

// calibrate times the fixed reference workload: 64 applications of a
// 21-tap FIR over a 600-sample ramp.
func calibrate() float64 {
	sig := make([]float64, 600)
	for i := range sig {
		sig[i] = float64(i % 97)
	}
	fir, err := dsp.NewLowPassFIR(1, 10, 21)
	if err != nil {
		panic(err) // fixed valid parameters
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := 0; j < 64; j++ {
				fir.Apply(sig)
			}
		}
	})
	return float64(r.NsPerOp())
}

// Measure benchmarks all three paths over the fixture and assembles the
// report.
func Measure(fx *Fixture) (*Report, error) {
	var runErr error
	inc := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fx.RunIncremental(); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("streambench: incremental: %w", runErr)
	}
	perWin := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fx.RunPerWindow()
		}
	})
	batch := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := fx.RunBatchReference(); err != nil {
				runErr = err
				b.FailNow()
			}
		}
	})
	if runErr != nil {
		return nil, fmt.Errorf("streambench: batch reference: %w", runErr)
	}
	cfg := fx.Spec.Stream
	rep := &Report{
		Schema:        Schema,
		GoOS:          runtime.GOOS,
		GoArch:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		Window:        cfg.WindowSamples,
		Hop:           cfg.HopSamples,
		BandRadius:    cfg.DTWBandRadius,
		Samples:       len(fx.Samples),
		Hops:          fx.Hops,
		CalibrationNs: calibrate(),
		Paths: map[string]PathStats{
			"incremental":     fx.stats(inc),
			"per_window":      fx.stats(perWin),
			"batch_reference": fx.stats(batch),
		},
	}
	rep.SpeedupWindowsPerSec = rep.Paths["incremental"].WindowsPerSec / rep.Paths["per_window"].WindowsPerSec
	return rep, nil
}

// WriteFile saves the report as indented JSON.
func (r *Report) WriteFile(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("streambench: %w", err)
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// ReadReportFile loads a committed report.
func ReadReportFile(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("streambench: %w", err)
	}
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("streambench: %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("streambench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// CheckRegression fails when the current incremental path is more than
// maxRegress slower (calibration-normalized ns/sample) than the
// baseline. A missing incremental entry in either report is an error.
func CheckRegression(current, baseline *Report, maxRegress float64) error {
	cur, ok := current.Paths["incremental"]
	if !ok {
		return fmt.Errorf("streambench: current report has no incremental path")
	}
	base, ok := baseline.Paths["incremental"]
	if !ok {
		return fmt.Errorf("streambench: baseline report has no incremental path")
	}
	if current.CalibrationNs <= 0 || baseline.CalibrationNs <= 0 {
		return fmt.Errorf("streambench: non-positive calibration (current %v, baseline %v)",
			current.CalibrationNs, baseline.CalibrationNs)
	}
	curNorm := cur.NsPerSample / current.CalibrationNs
	baseNorm := base.NsPerSample / baseline.CalibrationNs
	if curNorm > baseNorm*(1+maxRegress) {
		return fmt.Errorf("streambench: incremental ns/sample regressed %.1f%% over baseline (normalized %.4g vs %.4g, bound %.0f%%)",
			100*(curNorm/baseNorm-1), curNorm, baseNorm, 100*maxRegress)
	}
	return nil
}

// CheckSpeedup fails when the incremental path is not at least minSpeedup
// times the per-window path in windows/sec.
func CheckSpeedup(r *Report, minSpeedup float64) error {
	if r.SpeedupWindowsPerSec < minSpeedup {
		return fmt.Errorf("streambench: incremental is %.2fx the per-window path, need >= %.1fx",
			r.SpeedupWindowsPerSec, minSpeedup)
	}
	return nil
}
