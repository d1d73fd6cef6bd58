package repro_test

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/guard"
	"repro/internal/obs"
	"repro/internal/preprocess"
)

// snapDelta captures the Default registry before a block runs and returns
// a reader over the counter/histogram deltas it caused. Metrics are
// process-global monotone counters, so before/after deltas isolate one
// test from the rest of the suite.
type snapDelta struct {
	before *obs.Snapshot
	after  *obs.Snapshot
}

func (d *snapDelta) counter(family string) int64 {
	return d.after.CounterSum(family) - d.before.CounterSum(family)
}

func (d *snapDelta) histCount(family string) int64 {
	return d.after.HistogramCount(family) - d.before.HistogramCount(family)
}

func measure(body func()) *snapDelta {
	d := &snapDelta{before: obs.Default.TakeSnapshot(false)}
	body()
	d.after = obs.Default.TakeSnapshot(false)
	return d
}

// TestObservabilityBatchDetect fans a batch of windows out over four
// goroutines sharing one Detector, as a caller with many windows does,
// through the fully instrumented path (run with -race in CI), and
// asserts the metric deltas the run must leave behind: one Detect and
// one verdict per window, one observation per pipeline stage per window,
// and two preprocess passes (tx + rx) per window.
func TestObservabilityBatchDetect(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 11, Peer: guard.PeerGenuine}, 12)
	if err != nil {
		t.Fatal(err)
	}

	var det *guard.Detector
	trainDelta := measure(func() {
		det, err = guard.TrainFromTraces(guard.DefaultOptions(), training)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := trainDelta.counter("guard_train_total"); got != 1 {
		t.Errorf("guard_train_total delta = %d, want 1", got)
	}
	if got := trainDelta.histCount("guard_train_seconds"); got != 1 {
		t.Errorf("guard_train_seconds delta = %d, want 1", got)
	}

	genuine, err := guard.SimulateMany(guard.SimOptions{Seed: 910, Peer: guard.PeerGenuine}, 4)
	if err != nil {
		t.Fatal(err)
	}
	fake, err := guard.SimulateMany(guard.SimOptions{Seed: 920, Peer: guard.PeerReenact}, 4)
	if err != nil {
		t.Fatal(err)
	}
	var windows []guard.Session
	for _, s := range append(genuine, fake...) {
		windows = append(windows, guard.Session{Transmitted: s.T, Received: s.R})
	}
	n := int64(len(windows))

	errs := make([]error, len(windows))
	start := time.Now()
	delta := measure(func() {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(windows); i += 4 {
					_, errs[i] = det.Detect(windows[i].Transmitted, windows[i].Received)
				}
			}(w)
		}
		wg.Wait()
	})
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
	}

	// Verdict accounting: every window flowed through guard.Detect, each
	// produced exactly one conclusive verdict.
	if got := delta.counter("guard_detect_total"); got != n {
		t.Errorf("guard_detect_total delta = %d, want %d", got, n)
	}
	if got := delta.counter("guard_detect_errors_total"); got != 0 {
		t.Errorf("guard_detect_errors_total delta = %d, want 0", got)
	}
	if got := delta.counter("guard_verdicts_total"); got != n {
		t.Errorf("guard_verdicts_total delta = %d, want %d", got, n)
	}
	if got := delta.counter("guard_panics_recovered_total"); got != 0 {
		t.Errorf("guard_panics_recovered_total delta = %d, want 0", got)
	}
	if got := delta.histCount("guard_detect_seconds"); got != n {
		t.Errorf("guard_detect_seconds delta = %d, want %d", got, n)
	}

	// Stage latency accounting: the four pipeline stages observe once per
	// window, and each window preprocesses two signals (tx and rx).
	for _, stage := range []string{"preprocess_tx", "preprocess_rx", "features", "score"} {
		name := `core_stage_seconds{stage="` + stage + `"}`
		h, ok := delta.after.Histogram(name)
		if !ok {
			t.Fatalf("histogram %s not registered", name)
		}
		hb, _ := delta.before.Histogram(name)
		if got := h.Count - hb.Count; got != n {
			t.Errorf("%s delta = %d, want %d", name, got, n)
		}
	}
	if got := delta.histCount("preprocess_process_seconds"); got != 2*n {
		t.Errorf("preprocess_process_seconds delta = %d, want %d", got, 2*n)
	}
	if got := delta.histCount("preprocess_stage_seconds"); got == 0 {
		t.Error("preprocess_stage_seconds recorded nothing")
	}
	// Detect windows arrive pre-gridded; the resampler must not run.
	if got := delta.counter("preprocess_resample_total"); got != 0 {
		t.Errorf("preprocess_resample_total delta = %d, want 0 on the gridded path", got)
	}

	// Throughput sanity: instrumentation is budgeted at well under 5% of
	// the ~0.1 ms/window pipeline. A generous wall-clock ceiling catches
	// only order-of-magnitude regressions (a lock on the hot path), not
	// scheduler noise.
	if perWindow := elapsed / time.Duration(n); perWindow > 250*time.Millisecond {
		t.Errorf("detect took %v per window; instrumented path is far off budget", perWindow)
	}
}

// TestObservabilityStreamHops drives the incremental StreamDetector and
// checks the hop-level accounting: every judged hop counts once in
// guard_stream_hops_total and lands in exactly one of
// conclusive/inconclusive, conclusive hops count a verdict, and every
// judged hop observes the quality histogram.
func TestObservabilityStreamHops(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 21, Peer: guard.PeerGenuine}, 12)
	if err != nil {
		t.Fatal(err)
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := det.NewStreamDetector(guard.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	var hops int64
	delta := measure(func() {
		// One session is shorter than a window plus warmup, so stream
		// several back to back.
		for s := int64(0); s < 4; s++ {
			session, err := guard.Simulate(guard.SimOptions{Seed: 950 + s, Peer: guard.PeerReenact})
			if err != nil {
				t.Fatal(err)
			}
			for i := range session.T {
				if sd.Push(guard.StreamSample{Transmitted: session.T[i], Received: session.R[i]}) != nil {
					hops++
				}
			}
		}
		hops += int64(len(sd.Finish()))
	})
	if hops == 0 {
		t.Fatal("stream judged no hops; session too short for the config")
	}
	if got := delta.counter("guard_stream_hops_total"); got != hops {
		t.Errorf("guard_stream_hops_total delta = %d, want %d hops", got, hops)
	}
	conclusive := delta.counter("guard_windows_conclusive_total")
	inconclusive := delta.counter("guard_windows_inconclusive_total")
	if conclusive+inconclusive != hops {
		t.Errorf("conclusive+inconclusive = %d+%d, want %d hops", conclusive, inconclusive, hops)
	}
	if got := delta.counter("guard_verdicts_total"); got != conclusive {
		t.Errorf("guard_verdicts_total delta = %d, want %d (one per conclusive hop)", got, conclusive)
	}
	if got := delta.histCount("guard_window_quality"); got != hops {
		t.Errorf("guard_window_quality delta = %d, want %d", got, hops)
	}
}

// TestObservabilityDetectSamplesInconclusive checks the abstention path:
// a stream gutted by gaps must abstain with a ReasonCode-labelled counter
// increment, not a verdict.
func TestObservabilityDetectSamplesInconclusive(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	training, err := guard.SimulateMany(guard.SimOptions{Seed: 31, Peer: guard.PeerGenuine}, 12)
	if err != nil {
		t.Fatal(err)
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		t.Fatal(err)
	}
	session, err := guard.Simulate(guard.SimOptions{Seed: 960, Peer: guard.PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	// Timestamp the session onto the capture grid and poison every other
	// received sample with NaN: half the stream sanitizes away, blowing
	// the default 20% gap-ratio budget.
	tx := make([]preprocess.Sample, 0, len(session.T))
	rx := make([]preprocess.Sample, 0, len(session.R))
	for i := range session.T {
		ts := float64(i) / session.Fs
		tx = append(tx, preprocess.Sample{T: ts, V: session.T[i]})
		v := session.R[i]
		if i%2 == 1 {
			v = math.NaN()
		}
		rx = append(rx, preprocess.Sample{T: ts, V: v})
	}

	var res guard.WindowResult
	delta := measure(func() {
		res, err = det.DetectSamples(tx, rx, guard.StreamQuality{})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Inconclusive {
		t.Fatalf("expected an inconclusive window, got verdict %+v", res.Verdict)
	}
	if got := delta.counter("guard_windows_inconclusive_total"); got != 1 {
		t.Errorf("guard_windows_inconclusive_total delta = %d, want 1", got)
	}
	if got := delta.counter("guard_verdicts_total"); got != 0 {
		t.Errorf("guard_verdicts_total delta = %d, want 0 on abstention", got)
	}
	// The timestamped path resamples both streams onto the grid.
	if got := delta.counter("preprocess_resample_total"); got != 2 {
		t.Errorf("preprocess_resample_total delta = %d, want 2", got)
	}
	if got := delta.counter("preprocess_sanitize_dropped_total"); got == 0 {
		t.Error("preprocess_sanitize_dropped_total did not count the NaN samples")
	}
}
