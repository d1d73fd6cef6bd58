package guard

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/preprocess"
)

// Every judged hop borrows its windows, peak lists and feature buffers
// from one pool shared by all StreamDetectors. These tests interleave
// detectors on one Detector over streams built to expose reuse bugs —
// a flat received window right after a changing one, a many-peak window
// followed by a one-peak window, gate exits between conclusive hops, and
// a second window size — and check every hop against a fresh-state
// re-judge through the public allocating layers. The re-judge shares no
// code with judgeStreamWindow, so a reuse bug there cannot hide by
// corrupting the reference too (DetectStreamBatch, which does share it,
// is checked as well).

// stepStream builds a stream whose transmitted signal steps between two
// levels at the given sample indices; the received signal answers each
// step lag samples later at a third of the amplitude, with seeded noise.
func stepStream(n int, steps []int, lag int, seed int64) []StreamSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]StreamSample, n)
	level := 0.0
	next := 0
	for i := range out {
		if next < len(steps) && steps[next] == i {
			level = 140 - level
			next++
		}
		out[i].Transmitted = 60 + level + 0.5*rng.NormFloat64()
	}
	for i := range out {
		src := max(i-lag, 0)
		out[i].Received = 100 + (out[src].Transmitted-60)/3 + 0.4*rng.NormFloat64()
	}
	return out
}

// scratchCase is one reuse-stressing stream, the configuration its
// detector runs, and its expected hops.
type scratchCase struct {
	name        string
	samples     []StreamSample
	cfg         StreamConfig
	want, batch []WindowResult
}

var (
	scratchOnce     sync.Once
	scratchCaseList []scratchCase
)

// scratchCases returns the streams, each judged through rejudge and
// DetectStreamBatch on the shared test detector. They are built once
// per test binary: simulation dominates their cost, and the race soak
// runs these tests ten times over.
func scratchCases(t *testing.T) []scratchCase {
	t.Helper()
	det := trainDetector(t)
	scratchOnce.Do(func() { scratchCaseList = buildScratchCases(t, det) })
	if scratchCaseList == nil {
		t.Fatal("scratch cases failed to build")
	}
	return scratchCaseList
}

func buildScratchCases(t *testing.T, det *Detector) []scratchCase {
	t.Helper()
	// A changing genuine call whose received luminance then freezes at a
	// constant for longer than a window: flat received windows follow
	// changing ones, and flat ones are followed by changing ones again.
	flat := cleanStream(t, 45000, PeerGenuine, 6)
	for i := 300; i < 600; i++ {
		flat[i].Received = 97.25
	}

	// Many challenges (a step every 35 samples), then a lone one.
	var steps []int
	for i := 40; i < 470; i += 35 {
		steps = append(steps, i)
	}
	steps = append(steps, 640)
	peaks := stepStream(900, steps, 3, 46000)

	// Landmark-loss, NaN and stale spans that trip each gate for a few
	// hops, separated by clean stretches that judge conclusively.
	gated := cleanStream(t, 47000, PeerGenuine, 6)
	for i := 250; i < 295; i++ {
		gated[i].LandmarkLost = true
		gated[i].Received = math.NaN()
	}
	for i := 480; i < 520; i++ {
		gated[i].Transmitted = math.Inf(-1)
	}
	for i := 650; i < 740; i++ {
		gated[i].Stale = true
	}

	odd := StreamConfig{WindowSamples: 97, HopSamples: 7, WarmupSamples: 11, MinChallenges: 1, DTWBandRadius: -1}
	cases := []scratchCase{
		{name: "flat-received", samples: flat, cfg: DefaultStreamConfig()},
		{name: "many-then-one-peak", samples: peaks, cfg: DefaultStreamConfig()},
		{name: "gate-exits", samples: gated, cfg: DefaultStreamConfig()},
		{name: "odd-window", samples: degradeStream(cleanStream(t, 48000, PeerReenact, 6), 9), cfg: odd},
		{name: "odd-window-peaks", samples: peaks, cfg: odd},
	}
	for i := range cases {
		c := &cases[i]
		c.want = rejudge(t, det, c.samples, c.cfg)
		var err error
		if c.batch, err = det.DetectStreamBatch(c.samples, c.cfg); err != nil {
			t.Fatal(err)
		}
	}
	return cases
}

// rejudge is the independent reference: hold-last sanitation, the batch
// chain, and each hop window judged with fresh buffers through
// dsp.FindPeaks, features.ExtractWithDetail and the core model's
// DetectVector. Reason strings are not rebuilt; callers compare codes.
func rejudge(t *testing.T, d *Detector, samples []StreamSample, cfg StreamConfig) []WindowResult {
	t.Helper()
	cfg = cfg.withDefaults()
	if len(samples) <= cfg.WarmupSamples {
		return nil
	}
	samples = samples[cfg.WarmupSamples:]
	n := len(samples)
	tx, rx := make([]float64, n), make([]float64, n)
	gap, lost, stale := make([]bool, n), make([]bool, n), make([]bool, n)
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	var lastTx, lastRx float64
	for i, s := range samples {
		tx[i], rx[i] = s.Transmitted, s.Received
		if !finite(tx[i]) {
			tx[i], gap[i] = lastTx, true
		}
		if s.LandmarkLost || !finite(rx[i]) {
			rx[i], gap[i], lost[i] = lastRx, true, s.LandmarkLost
		}
		stale[i] = s.Stale
		lastTx, lastRx = tx[i], rx[i]
	}
	smTx, err := preprocess.SmoothSignal(tx, d.cfg.Preprocess)
	if err != nil {
		t.Fatal(err)
	}
	smRx, err := preprocess.SmoothSignal(rx, d.cfg.Preprocess)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := d.cfg.Features
	fcfg.DTWBandRadius = cfg.DTWBandRadius
	w := cfg.WindowSamples
	var out []WindowResult
	for e := w - 1; e < n; e += cfg.HopSamples {
		first := e - w + 1
		var res WindowResult
		var lostN int
		for i := first; i <= e; i++ {
			if gap[i] {
				res.Gaps++
			}
			if lost[i] {
				lostN++
			}
			if stale[i] {
				res.Stale++
			}
		}
		res.Quality = max(0, 1-(float64(res.Gaps)+0.5*float64(res.Stale))/float64(w))
		switch {
		case float64(lostN)/float64(w) > cfg.MaxGapRatio:
			res.Inconclusive, res.Code = true, ReasonLandmarkLoss
		case float64(res.Gaps)/float64(w) > cfg.MaxGapRatio:
			res.Inconclusive, res.Code = true, ReasonGapRatio
		case float64(res.Stale)/float64(w) > cfg.MaxStaleRatio:
			res.Inconclusive, res.Code = true, ReasonStale
		default:
			winTx, winRx := smTx[first:e+1], smRx[first:e+1]
			resTx := &preprocess.Result{Smoothed: winTx, Peaks: dsp.FindPeaks(winTx, d.cfg.ScreenProminence)}
			resRx := &preprocess.Result{Smoothed: winRx, Peaks: dsp.FindPeaks(winRx, d.cfg.FaceProminence)}
			v, detail, err := features.ExtractWithDetail(resTx, resRx, fcfg)
			if err != nil {
				res.Inconclusive, res.Code = true, ReasonExtraction
				break
			}
			res.Challenges = detail.TxChanges
			if detail.TxChanges < cfg.MinChallenges {
				res.Inconclusive, res.Code = true, ReasonNoChallenge
				break
			}
			dec, err := d.det.DetectVector(v)
			if err != nil {
				res.Inconclusive, res.Code, res.Challenges = true, ReasonExtraction, 0
				break
			}
			res.Verdict = Verdict{
				Attacker: dec.Attacker,
				Score:    dec.Score,
				Features: [4]float64{dec.Features.Z1, dec.Features.Z2, dec.Features.Z3, dec.Features.Z4},
			}
		}
		out = append(out, res)
	}
	return out
}

// checkHops compares a detector's hops with the re-judge (everything but
// the Reason text) and with DetectStreamBatch (everything).
func checkHops(name string, got, want, batch []WindowResult) error {
	if len(got) != len(want) || len(got) != len(batch) {
		return fmt.Errorf("%s: %d hops, re-judge %d, batch %d", name, len(got), len(want), len(batch))
	}
	for i := range got {
		g := got[i]
		g.Reason = ""
		if !sameWindowResult(g, want[i]) {
			return fmt.Errorf("%s hop %d:\ndetector %+v\nre-judge %+v", name, i, got[i], want[i])
		}
		if !sameWindowResult(got[i], batch[i]) {
			return fmt.Errorf("%s hop %d:\ndetector %+v\nbatch    %+v", name, i, got[i], batch[i])
		}
	}
	return nil
}

// TestStreamScratchStreamsStressReuse pins what the streams exercise, so
// the isolation tests below cannot pass vacuously.
func TestStreamScratchStreamsStressReuse(t *testing.T) {
	byName := map[string][]WindowResult{}
	for _, c := range scratchCases(t) {
		byName[c.name] = c.want
	}
	var conclusive, gated int
	for _, r := range byName["gate-exits"] {
		switch r.Code {
		case ReasonNone:
			conclusive++
		case ReasonLandmarkLoss, ReasonGapRatio, ReasonStale:
			gated++
		}
	}
	if conclusive == 0 || gated == 0 {
		t.Errorf("gate-exits: %d conclusive and %d gated hops, want both", conclusive, gated)
	}
	codes := map[ReasonCode]bool{}
	for _, r := range byName["gate-exits"] {
		codes[r.Code] = true
	}
	for _, c := range []ReasonCode{ReasonLandmarkLoss, ReasonGapRatio, ReasonStale} {
		if !codes[c] {
			t.Errorf("gate-exits never trips %v", c)
		}
	}
	matched, flatAfterMatched := false, false
	for _, r := range byName["flat-received"] {
		if r.Inconclusive {
			continue
		}
		if r.Verdict.Features[1] > 0 {
			matched = true
		} else if matched && r.Verdict.Features[1] == 0 {
			flatAfterMatched = true
		}
	}
	if !flatAfterMatched {
		t.Error("flat-received: no conclusive flat-received hop after a matched one")
	}
	most, fewAfterMost := 0, false
	for _, r := range byName["many-then-one-peak"] {
		if r.Challenges > most {
			most = r.Challenges
		} else if most >= 3 && r.Challenges == 1 && !r.Inconclusive {
			fewAfterMost = true
		}
	}
	if most < 3 || !fewAfterMost {
		t.Errorf("many-then-one-peak: most challenges %d, one-challenge conclusive hop after it %v", most, fewAfterMost)
	}
}

// TestStreamScratchIsolationInterleaved round-robins one tick at a time
// over five detectors sharing one Detector (and so one scratch pool).
func TestStreamScratchIsolationInterleaved(t *testing.T) {
	det := trainDetector(t)
	cases := scratchCases(t)
	sds := make([]*StreamDetector, len(cases))
	got := make([][]WindowResult, len(cases))
	longest := 0
	for i, c := range cases {
		sd, err := det.NewStreamDetector(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		sds[i] = sd
		longest = max(longest, len(c.samples))
	}
	for k := 0; k < longest; k++ {
		for i, c := range cases {
			if k >= len(c.samples) {
				continue
			}
			if r := sds[i].Push(c.samples[k]); r != nil {
				got[i] = append(got[i], *r)
			}
		}
	}
	for i, c := range cases {
		got[i] = append(got[i], sds[i].Finish()...)
		if err := checkHops(c.name, got[i], c.want, c.batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamScratchIsolationConcurrent gives each goroutine detectors of
// its own on one shared Detector, so hops on different goroutines borrow
// from the pool at once. Run it under -race with -count=10.
func TestStreamScratchIsolationConcurrent(t *testing.T) {
	det := trainDetector(t)
	cases := scratchCases(t)
	const perCase = 3
	var wg sync.WaitGroup
	errs := make(chan error, perCase*len(cases))
	for rep := 0; rep < perCase; rep++ {
		for _, c := range cases {
			wg.Add(1)
			go func(c scratchCase) {
				defer wg.Done()
				sd, err := det.NewStreamDetector(c.cfg)
				if err != nil {
					errs <- err
					return
				}
				var got []WindowResult
				for _, s := range c.samples {
					if r := sd.Push(s); r != nil {
						got = append(got, *r)
					}
				}
				got = append(got, sd.Finish()...)
				if err := checkHops(c.name, got, c.want, c.batch); err != nil {
					errs <- err
				}
			}(c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
