package guard

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/preprocess"
)

// StreamQuality bounds how much capture degradation DetectSamples
// tolerates before declaring a window inconclusive. The zero value means
// the defaults (1 s bridgeable gaps, 20% invalid samples).
type StreamQuality struct {
	// MaxGapSec is the longest gap bridged by interpolation; longer gaps
	// become invalid spans. Zero means 1 s.
	MaxGapSec float64
	// MaxGapRatio is the highest tolerated fraction of invalid samples
	// (long gaps plus NaN/Inf drops) per window. Zero means 0.2.
	MaxGapRatio float64
}

func (q StreamQuality) withDefaults() StreamQuality {
	if q.MaxGapSec == 0 {
		q.MaxGapSec = 1
	}
	if q.MaxGapRatio == 0 {
		q.MaxGapRatio = 0.2
	}
	return q
}

// Validate checks the bounds as the caller supplied them — run it before
// withDefaults, not after: defaulting first would let values Validate can
// no longer see (and non-finite values, which every range comparison
// silently passes) flow into the resampler.
func (q StreamQuality) Validate() error {
	if math.IsNaN(q.MaxGapSec) || math.IsInf(q.MaxGapSec, 0) || q.MaxGapSec < 0 {
		return fmt.Errorf("guard: max gap %v must be finite and non-negative", q.MaxGapSec)
	}
	if math.IsNaN(q.MaxGapRatio) || q.MaxGapRatio < 0 || q.MaxGapRatio > 1 {
		return fmt.Errorf("guard: gap ratio bound %v outside [0, 1]", q.MaxGapRatio)
	}
	return nil
}

// DetectSamples classifies one window delivered as timestamped samples
// from a lossy capture path. It sanitizes NaN/Inf samples into gaps,
// resamples both streams onto the detector grid (bridging short gaps by
// interpolation, marking long ones invalid), and judges the window only
// when enough of it is backed by real data — otherwise it returns an
// inconclusive WindowResult with the reason, never a verdict computed
// from held padding. Errors are reserved for structural misuse (too few
// samples to resample at all).
func (d *Detector) DetectSamples(tx, rx []preprocess.Sample, q StreamQuality) (WindowResult, error) {
	start := time.Now() //lint:ignore vclint/nodeterm span timing only; the detection result is derived purely from the samples
	res, err := d.detectSamples(tx, rx, q)
	if err != nil {
		obs.Default.RecordSpan("guard.detect_samples", start, "error: "+err.Error())
		return res, err
	}
	recordWindow(&res)
	if res.Inconclusive {
		obs.Default.RecordSpan("guard.detect_samples", start, "reason="+reasonLabel(res.Code))
	} else {
		obs.Default.RecordSpan("guard.detect_samples", start, fmt.Sprintf("attacker=%v", res.Verdict.Attacker))
	}
	return res, nil
}

// detectSamples is DetectSamples without the instrumentation wrapper.
func (d *Detector) detectSamples(tx, rx []preprocess.Sample, q StreamQuality) (WindowResult, error) {
	if err := q.Validate(); err != nil {
		return WindowResult{}, err
	}
	q = q.withDefaults()
	fs := d.cfg.Preprocess.Fs
	rcfg := preprocess.ResampleConfig{Fs: fs, MaxGapSec: q.MaxGapSec}

	txClean, txDropped := preprocess.SanitizeSamples(tx)
	rxClean, rxDropped := preprocess.SanitizeSamples(rx)
	txRes, err := preprocess.Resample(txClean, rcfg)
	if err != nil {
		return WindowResult{}, fmt.Errorf("guard: transmitted stream: %w", err)
	}
	rxRes, err := preprocess.Resample(rxClean, rcfg)
	if err != nil {
		return WindowResult{}, fmt.Errorf("guard: received stream: %w", err)
	}

	// Align the two grids to a common window length.
	n := len(txRes.Values)
	if len(rxRes.Values) < n {
		n = len(rxRes.Values)
	}
	invalid := txDropped + rxDropped
	for i := 0; i < n; i++ {
		if !txRes.Valid[i] || !rxRes.Valid[i] {
			invalid++
		}
	}
	// The stream gate with every invalid sample a gap: no landmark or
	// stale count, so only the gap bound can close the window.
	total := n + txDropped + rxDropped
	code, quality := gateWindow(total, invalid, 0, 0, q.MaxGapRatio, 1)
	if code != ReasonNone {
		return WindowResult{
			Inconclusive: true,
			Code:         code,
			Reason: fmt.Sprintf("%s: %d/%d grid samples invalid (%d non-finite dropped, bound %.0f%%)",
				code, invalid, total, txDropped+rxDropped, 100*q.MaxGapRatio),
			Quality: quality,
			Gaps:    invalid,
		}, nil
	}

	v, err := d.Detect(txRes.Values[:n], rxRes.Values[:n])
	if err != nil {
		return WindowResult{
			Inconclusive: true,
			Code:         ReasonExtraction,
			Reason:       fmt.Sprintf("%s: %v", ReasonExtraction, err),
			Quality:      quality,
			Gaps:         invalid,
		}, nil
	}
	return WindowResult{Verdict: v, Quality: quality, Gaps: invalid}, nil
}

// DefaultStreamBandRadius is the Sakoe-Chiba band radius the streaming
// path uses for the z4 DTW distance. At the paper's scale (75-sample
// half-windows) it cuts the table from O(n²) to O(n·r). Network delay
// is removed before the DTW runs, so few genuine warps reach past it:
// against unconstrained DTW, radius 8 flipped 0.06% of genuine and
// 0.00% of reenacted verdicts over about 1,700 conclusive hops each.
// DESIGN.md discusses the band-radius/accuracy trade-off.
const DefaultStreamBandRadius = 8

// StreamConfig shapes the incremental per-hop detector. Start from
// DefaultStreamConfig; the zero value is rejected.
type StreamConfig struct {
	// WindowSamples is the detection window length (paper: 150 = 15 s at
	// 10 Hz). Every hop judges the trailing window of this length.
	WindowSamples int
	// HopSamples is how far consecutive windows advance. 1 judges every
	// sample; WindowSamples gives back-to-back, non-overlapping windows.
	HopSamples int
	// WarmupSamples are discarded before the stream enters the pipeline.
	WarmupSamples int
	// MinChallenges is the minimum number of significant transmitted
	// changes for a window to be conclusive: with no challenge issued
	// there is nothing to correlate, and the hop reports
	// ReasonNoChallenge instead of a verdict.
	MinChallenges int
	// MaxGapRatio / MaxStaleRatio bound per-window capture degradation;
	// zero means 0.2 / 0.5.
	MaxGapRatio   float64
	MaxStaleRatio float64
	// DTWBandRadius constrains the z4 warp: zero means
	// DefaultStreamBandRadius, negative means unconstrained (the batch
	// Detect behaviour).
	DTWBandRadius int
}

// DefaultStreamConfig mirrors the paper's windowing with a 0.5 s hop: a
// fresh verdict twice a second over the trailing 15 s window. That
// cadence is what the incremental engine buys — re-judging raw windows
// at this rate costs the legacy batch path several times more CPU
// (BENCH_streaming.json quantifies it).
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{
		WindowSamples: 150,
		HopSamples:    5,
		WarmupSamples: 30,
		MinChallenges: 1,
		MaxGapRatio:   0.2,
		MaxStaleRatio: 0.5,
		DTWBandRadius: DefaultStreamBandRadius,
	}
}

// Validate checks the parameters as supplied — before defaulting, per the
// StreamQuality lesson, so explicit non-finite or negative values never
// hide behind a zero-means-default rule.
func (c StreamConfig) Validate() error {
	if c.WindowSamples < 40 {
		return fmt.Errorf("guard: stream window of %d samples too short", c.WindowSamples)
	}
	if c.HopSamples < 1 || c.HopSamples > c.WindowSamples {
		return fmt.Errorf("guard: hop of %d samples outside [1, window=%d]", c.HopSamples, c.WindowSamples)
	}
	if c.WarmupSamples < 0 {
		return fmt.Errorf("guard: negative warmup")
	}
	if c.MinChallenges < 0 {
		return fmt.Errorf("guard: negative challenge minimum")
	}
	if math.IsNaN(c.MaxGapRatio) || c.MaxGapRatio < 0 || c.MaxGapRatio > 1 {
		return fmt.Errorf("guard: gap ratio bound %v outside [0, 1]", c.MaxGapRatio)
	}
	if math.IsNaN(c.MaxStaleRatio) || c.MaxStaleRatio < 0 || c.MaxStaleRatio > 1 {
		return fmt.Errorf("guard: stale ratio bound %v outside [0, 1]", c.MaxStaleRatio)
	}
	return nil
}

// withDefaults resolves the zero quality bounds and band radius.
func (c StreamConfig) withDefaults() StreamConfig {
	if c.MaxGapRatio == 0 {
		c.MaxGapRatio = 0.2
	}
	if c.MaxStaleRatio == 0 {
		c.MaxStaleRatio = 0.5
	}
	if c.DTWBandRadius == 0 {
		c.DTWBandRadius = DefaultStreamBandRadius
	}
	return c
}

// StreamDetector is the incremental detection hot path: it accepts
// samples as they arrive, runs both signals through O(1)-per-sample
// sliding filter chains, and judges the trailing window every HopSamples
// ticks — a verdict per hop instead of per full window, with no per-hop
// recomputation of the chain and a banded DTW underneath.
//
// Its verdicts are bit-identical to DetectStreamBatch, the retained batch
// reference that runs the whole stream through the batch chain and
// judges the same hop grid (stream_test.go and the golden stream trace
// enforce the equivalence). It is not safe for concurrent use; feed it
// from the session loop.
//
// A detector holds only what the session must keep: the chains' rings,
// the two smoothed-window rings and the flag ring. A judged hop borrows
// everything else — the linearized windows, peak lists and feature
// buffers — from a pool shared by all sessions, and the filter
// coefficients and gate texts belong to the trained Detector.
type StreamDetector struct {
	det     *Detector
	cfg     StreamConfig
	gate    *streamGate // shared by every session of this shape
	txChain *preprocess.StreamChain
	rxChain *preprocess.StreamChain
	latency int

	warm           int
	raw            int // post-warmup ticks consumed
	emitted        int // smoothed samples emitted by the chains
	nextEnd        int // next smoothed index that ends a judged window
	lastTx, lastRx float64
	flags          []uint8   // ring: capture-health bits per raw tick
	smTx, smRx     []float64 // rings: smoothed window history
	finished       bool

	last         WindowResult // the latest hop's result, which Push returns
	results      []WindowResult
	attackVotes  int
	conclusive   int
	inconclusive int
}

// NewStreamDetector builds the incremental engine over a trained
// detector.
func (d *Detector) NewStreamDetector(cfg StreamConfig) (*StreamDetector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	txChain := d.chain.NewChain()
	w := cfg.WindowSamples
	return &StreamDetector{
		det:     d,
		cfg:     cfg,
		gate:    d.streamGate(cfg),
		txChain: txChain,
		rxChain: d.chain.NewChain(),
		latency: txChain.Latency(),
		nextEnd: w - 1,
		flags:   make([]uint8, w+txChain.Latency()),
		smTx:    make([]float64, w),
		smRx:    make([]float64, w),
	}, nil
}

// Latency returns how many ticks a smoothed sample — and therefore the
// verdict of the window it closes — lags the raw input (2.5 s at paper
// defaults). Finish drains it at stream end.
func (sd *StreamDetector) Latency() int { return sd.latency }

// Push adds one annotated tick. When the tick completes a hop it returns
// that window's result; otherwise nil. The result is the detector's own
// copy and stays valid only until the next Push or Finish, which
// overwrite it: a caller that keeps it copies it (*r), and Results holds
// every hop's result for good. Non-finite values and landmark-lost ticks
// degrade to the last good sample and count as gaps: a live session must
// survive a glitching capture path.
func (sd *StreamDetector) Push(s StreamSample) *WindowResult {
	if sd.finished {
		panic("guard: StreamDetector.Push after Finish")
	}
	if sd.warm < sd.cfg.WarmupSamples {
		sd.warm++
		return nil
	}
	tx, rx := s.Transmitted, s.Received
	var f uint8
	if math.IsNaN(tx) || math.IsInf(tx, 0) {
		tx = sd.lastTx
		f |= streamFlagGap
	}
	if s.LandmarkLost || math.IsNaN(rx) || math.IsInf(rx, 0) {
		rx = sd.lastRx
		f |= streamFlagGap
		if s.LandmarkLost {
			f |= streamFlagLandmark
		}
	}
	if s.Stale {
		f |= streamFlagStale
	}
	sd.lastTx, sd.lastRx = tx, rx
	sd.flags[sd.raw%len(sd.flags)] = f
	sd.raw++
	vTx, ok := sd.txChain.Push(tx)
	vRx, _ := sd.rxChain.Push(rx) // same latency: ok mirrors the tx chain
	if !ok {
		return nil
	}
	return sd.accept(vTx, vRx)
}

// Finish drains the filter pipelines at stream end, judging any hops
// completed by the flushed tail, and returns their results in order. The
// detector is spent afterwards; accessors keep working.
func (sd *StreamDetector) Finish() []WindowResult {
	if sd.finished {
		return nil
	}
	fTx := sd.txChain.Flush()
	fRx := sd.rxChain.Flush()
	sd.finished = true
	var out []WindowResult
	for i := range fTx {
		if r := sd.accept(fTx[i], fRx[i]); r != nil {
			out = append(out, *r)
		}
	}
	return out
}

// accept stores one smoothed sample pair and judges a hop when this
// sample ends one. Only the ring store and the hop-boundary test run
// per sample; everything behind the boundary lives in completeHop,
// which carries the per-hop allocation budget.
func (sd *StreamDetector) accept(vTx, vRx float64) *WindowResult {
	e := sd.emitted
	w := sd.cfg.WindowSamples
	sd.smTx[e%w], sd.smRx[e%w] = vTx, vRx
	sd.emitted++
	if e != sd.nextEnd {
		return nil
	}
	return sd.completeHop(e)
}

// completeHop judges the window ending at smoothed index e, records
// the verdict and the metering, and advances the hop boundary. It runs
// once per HopSamples ticks — the hotpathalloc per-hop tier boundary
// (registered in the analyzer's root list).
func (sd *StreamDetector) completeHop(e int) *WindowResult {
	sd.nextEnd += sd.cfg.HopSamples
	start := time.Now() //lint:ignore vclint/nodeterm feeds the per-hop latency histogram only; the WindowResult is clock-free
	sd.last = sd.judgeHop(e)
	res := &sd.last
	metricStreamHops.Inc()
	metricStreamHopSeconds.ObserveSince(start)
	sd.results = append(sd.results, *res)
	recordWindow(res)
	if res.Inconclusive {
		sd.inconclusive++
	} else {
		sd.conclusive++
		if res.Verdict.Attacker {
			sd.attackVotes++
			verdictAttacker.Inc()
		} else {
			verdictGenuine.Inc()
		}
	}
	return res
}

// hopScratch is what a judged hop needs and a session does not keep:
// the two linearized windows, both peak lists, and the feature
// extractor's buffers (change times, matches, aligned and normalized
// windows, the banded-DTW rows). Every field is rewritten before it is
// read, so a scratch carries nothing from one hop to the next.
type hopScratch struct {
	winTx, winRx     []float64
	peaksTx, peaksRx []dsp.Peak
	ext              features.Extractor
}

// hopScratchPool lends hop scratch to every StreamDetector: live
// sessions hold one per concurrently judged hop instead of one each.
var hopScratchPool = sync.Pool{New: func() any { return new(hopScratch) }}

// windows returns the scratch's two window buffers sized to w.
func (sc *hopScratch) windows(w int) (winTx, winRx []float64) {
	if cap(sc.winTx) < w {
		sc.winTx, sc.winRx = make([]float64, w), make([]float64, w)
	}
	return sc.winTx[:w], sc.winRx[:w]
}

// judgeHop tallies the capture-health flags of the window ending at
// smoothed index e and, when the window passes the capture gates,
// linearizes it from the rings into borrowed scratch and judges it. A
// hop that exits at a gate copies nothing and borrows no scratch.
func (sd *StreamDetector) judgeHop(e int) WindowResult {
	w := sd.cfg.WindowSamples
	first := e - w + 1
	// The window's w flags start at p and wrap past the ring's end.
	p := first % len(sd.flags)
	head := sd.flags[p:min(p+w, len(sd.flags))]
	res := sd.gate.open(tallyFlags(head, sd.flags[:w-len(head)]))
	if res.Inconclusive {
		return res
	}
	sc := hopScratchPool.Get().(*hopScratch)
	winTx, winRx := sc.windows(w)
	// The window spans the whole smoothed ring, rotated: two copies
	// linearize it without a modulo per element.
	rot := first % w
	k := copy(winTx, sd.smTx[rot:])
	copy(winTx[k:], sd.smTx[:rot])
	copy(winRx, sd.smRx[rot:])
	copy(winRx[k:], sd.smRx[:rot])
	res = sd.det.judgeStreamWindow(sc, winTx, winRx, sd.cfg, sd.gate, res)
	hopScratchPool.Put(sc)
	return res
}

// Windows returns how many hops were judged (conclusive, inconclusive).
func (sd *StreamDetector) Windows() (conclusive, inconclusive int) {
	return sd.conclusive, sd.inconclusive
}

// Flagged reports the running majority vote over conclusive hops,
// erroring until at least one exists.
func (sd *StreamDetector) Flagged() (bool, error) {
	if sd.conclusive == 0 {
		return false, fmt.Errorf("guard: no conclusive windows yet")
	}
	flagged, err := core.CombineVotes(sd.attackVotes, sd.conclusive, sd.det.cfg.VoteCoefficient)
	if err != nil {
		return false, fmt.Errorf("guard: %w", err)
	}
	return flagged, nil
}

// Results returns a copy of every hop result so far.
func (sd *StreamDetector) Results() []WindowResult {
	out := make([]WindowResult, len(sd.results))
	copy(out, sd.results)
	return out
}

// streamFeatures is the feature configuration a stream judges with: the
// trained one, with the stream's DTW band.
func (d *Detector) streamFeatures(cfg StreamConfig) features.Config {
	fcfg := d.cfg.Features
	fcfg.DTWBandRadius = cfg.DTWBandRadius
	return fcfg
}

// judgeStreamWindow classifies one hop window of the continuous smoothed
// signal that passed the stream gate g, completing the gate's result
// res, with sc's peak lists and extractor as working memory. It is shared
// verbatim by the incremental path (over linearized ring windows) and
// DetectStreamBatch (over batch slices) — the equivalence between the
// two reduces to their chain outputs and flag tallies, which the
// differential suite pins bitwise.
func (d *Detector) judgeStreamWindow(sc *hopScratch, winTx, winRx []float64, cfg StreamConfig, g *streamGate, res WindowResult) WindowResult {
	sc.peaksTx = dsp.AppendPeaks(sc.peaksTx[:0], winTx, d.cfg.ScreenProminence)
	sc.peaksRx = dsp.AppendPeaks(sc.peaksRx[:0], winRx, d.cfg.FaceProminence)
	resTx := preprocess.Result{Smoothed: winTx, Peaks: sc.peaksTx}
	resRx := preprocess.Result{Smoothed: winRx, Peaks: sc.peaksRx}
	v, detail, err := sc.ext.Extract(&resTx, &resRx, d.streamFeatures(cfg))
	if err != nil {
		res.Inconclusive, res.Code = true, ReasonExtraction
		res.Reason = fmt.Sprintf("%s: %v", ReasonExtraction, err)
		return res
	}
	if detail.TxChanges < cfg.MinChallenges {
		res.Inconclusive, res.Code, res.Challenges = true, ReasonNoChallenge, detail.TxChanges
		res.Reason = g.noChallengeReason(detail.TxChanges)
		return res
	}
	dec, err := d.det.DetectVector(v)
	if err != nil {
		res.Inconclusive, res.Code = true, ReasonExtraction
		res.Reason = fmt.Sprintf("%s: %v", ReasonExtraction, err)
		return res
	}
	res.Verdict = Verdict{
		Attacker: dec.Attacker,
		Score:    dec.Score,
		Features: [4]float64{dec.Features.Z1, dec.Features.Z2, dec.Features.Z3, dec.Features.Z4},
	}
	res.Challenges = detail.TxChanges
	return res
}

// DetectStreamBatch is the batch reference for the incremental path: it
// runs the whole (sanitized, hold-last) stream through the batch filter
// chain and judges the identical hop grid — windows ending at smoothed
// index WindowSamples-1, then every HopSamples. StreamDetector reproduces
// its results bit for bit; keep this path the simple one. Each call
// judges with scratch of its own, never the pooled hop scratch.
func (d *Detector) DetectStreamBatch(samples []StreamSample, cfg StreamConfig) ([]WindowResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	if len(samples) <= cfg.WarmupSamples {
		return nil, nil
	}
	samples = samples[cfg.WarmupSamples:]
	n := len(samples)
	tx := make([]float64, n)
	rx := make([]float64, n)
	flags := make([]uint8, n)
	var lastTx, lastRx float64
	for i, s := range samples {
		t, r := s.Transmitted, s.Received
		var f uint8
		if math.IsNaN(t) || math.IsInf(t, 0) {
			t = lastTx
			f |= streamFlagGap
		}
		if s.LandmarkLost || math.IsNaN(r) || math.IsInf(r, 0) {
			r = lastRx
			f |= streamFlagGap
			if s.LandmarkLost {
				f |= streamFlagLandmark
			}
		}
		if s.Stale {
			f |= streamFlagStale
		}
		lastTx, lastRx = t, r
		tx[i], rx[i], flags[i] = t, r, f
	}
	smTx, err := preprocess.SmoothSignal(tx, d.cfg.Preprocess)
	if err != nil {
		return nil, fmt.Errorf("guard: transmitted stream: %w", err)
	}
	smRx, err := preprocess.SmoothSignal(rx, d.cfg.Preprocess)
	if err != nil {
		return nil, fmt.Errorf("guard: received stream: %w", err)
	}
	sc := new(hopScratch)
	g := d.streamGate(cfg)
	var out []WindowResult
	for e := cfg.WindowSamples - 1; e < n; e += cfg.HopSamples {
		first := e - cfg.WindowSamples + 1
		res := g.open(tallyFlags(flags[first:e+1], nil))
		if !res.Inconclusive {
			res = d.judgeStreamWindow(sc, smTx[first:e+1], smRx[first:e+1], cfg, g, res)
		}
		out = append(out, res)
	}
	return out, nil
}

// StreamReport summarizes one stream judged end to end by the
// incremental path.
type StreamReport struct {
	// Results holds every hop's WindowResult in order.
	Results []WindowResult
	// Conclusive / Inconclusive count the hops by outcome.
	Conclusive, Inconclusive int
	// AttackerVotes counts conclusive attacker verdicts.
	AttackerVotes int
	// Flagged is the majority vote over conclusive hops; false when none
	// were conclusive (check Conclusive before trusting it).
	Flagged bool
}

// DetectStreamSamples judges a complete annotated stream through the
// incremental engine (push loop plus Finish) and reports the per-hop
// verdicts and the combined vote.
func (d *Detector) DetectStreamSamples(samples []StreamSample, cfg StreamConfig) (StreamReport, error) {
	start := time.Now() //lint:ignore vclint/nodeterm span timing only; the report is derived purely from the samples
	sd, err := d.NewStreamDetector(cfg)
	if err != nil {
		obs.Default.RecordSpan("guard.detect_stream", start, "error: "+err.Error())
		return StreamReport{}, err
	}
	for _, s := range samples {
		sd.Push(s)
	}
	sd.Finish()
	rep := StreamReport{
		Results:       sd.results,
		Conclusive:    sd.conclusive,
		Inconclusive:  sd.inconclusive,
		AttackerVotes: sd.attackVotes,
	}
	if sd.conclusive > 0 {
		rep.Flagged, err = sd.Flagged()
		if err != nil {
			obs.Default.RecordSpan("guard.detect_stream", start, "error: "+err.Error())
			return rep, err
		}
	}
	obs.Default.RecordSpan("guard.detect_stream", start,
		fmt.Sprintf("hops=%d flagged=%v", len(rep.Results), rep.Flagged))
	return rep, nil
}
