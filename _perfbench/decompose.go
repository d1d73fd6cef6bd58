package main

import (
	"fmt"
	"math"
	"runtime"

	"repro/guard"
	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/features"
	"repro/internal/preprocess"
	"repro/trace"
)

// layerKit re-judges hops through the public layers — StreamChain,
// FindPeaks, ExtractWithDetail and a core.Detector fitted to the same
// training vectors — so that the per-layer times describe exactly the
// computation the StreamDetector performs.
type layerKit struct {
	det   *guard.Detector
	cfg   core.Config
	model *core.Detector
	scfg  guard.StreamConfig
	fcfg  features.Config
}

// newLayerKit fits the core model the way guard.Train does: the paper
// configuration at guard.DefaultOptions, one feature vector per genuine
// training clip, in order.
func newLayerKit(det *guard.Detector, training []trace.Session) (*layerKit, error) {
	opt := guard.DefaultOptions()
	cfg := core.ConfigAtRate(opt.SamplingRateHz)
	cfg.Threshold, cfg.Neighbors, cfg.VoteCoefficient = opt.Threshold, opt.Neighbors, opt.VoteCoefficient
	var vectors []features.Vector
	for _, s := range training {
		if s.Ground != trace.LabelLegit {
			continue
		}
		v, _, err := core.ExtractFeaturesDetailed(cfg, s.T, s.R)
		if err != nil {
			return nil, err
		}
		vectors = append(vectors, v)
	}
	model, err := core.Train(cfg, vectors)
	if err != nil {
		return nil, err
	}
	scfg := guard.DefaultStreamConfig()
	fcfg := cfg.Features
	fcfg.DTWBandRadius = scfg.DTWBandRadius
	return &layerKit{det: det, cfg: cfg, model: model, scfg: scfg, fcfg: fcfg}, nil
}

// decomp accumulates the decomposition of many sessions.
type decomp struct {
	hopSelfNs        []float64
	coveredNs, hopNs int64
	mallocs, bytes   uint64
	hops, pushes     int
	pushSelfNs       int64
	batchNs          int64
	batchHops        int
}

// Stream-health flags, as the StreamDetector tallies them.
const (
	flagGap = 1 << iota
	flagLandmark
	flagStale
)

// decompose replays one session's input three ways and checks they
// agree: the real StreamDetector (timing every hop-closing Push and the
// rest as a block, counting allocations), a re-judge of every hop
// through the public layers (one span per layer call), and
// guard.DetectStreamBatch (the single-threaded batch reference).
func (k *layerKit) decompose(tr *tracer, d *decomp, sess int32, input []guard.StreamSample) error {
	warm, w, hop := k.scfg.WarmupSamples, k.scfg.WindowSamples, k.scfg.HopSamples

	// The real detector. Hop-closing pushes are known in advance, so each
	// is timed alone and the remainder of the block is the per-sample
	// push cost. Spans are added after the loop so that the allocation
	// count holds only the detector's own.
	sd, err := k.det.NewStreamDetector(k.scfg)
	if err != nil {
		return err
	}
	first := warm + sd.Latency() + w
	nHops := 0
	if len(input) >= first {
		nHops = (len(input)-first)/hop + 1
	}
	hopAt := make([][2]int64, 0, nHops)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	blockStart := tr.now()
	for i, x := range input {
		if n := i + 1; n >= first && (n-first)%hop == 0 {
			a := tr.now()
			out := sd.Push(x)
			hopAt = append(hopAt, [2]int64{a, tr.now()})
			if out == nil {
				return fmt.Errorf("push %d closed no hop", n)
			}
		} else if sd.Push(x) != nil {
			return fmt.Errorf("push %d closed an unexpected hop", n)
		}
	}
	blockEnd := tr.now()
	runtime.ReadMemStats(&m1)
	real := sd.Results()
	if len(real) != nHops {
		return fmt.Errorf("%d hops judged, %d expected", len(real), nHops)
	}
	d.mallocs += m1.Mallocs - m0.Mallocs
	d.bytes += m1.TotalAlloc - m0.TotalAlloc
	d.hops += nHops
	d.pushes += len(input) - nHops
	block := tr.add("guard.push", blockStart, blockEnd, -1, sess, -1, len(input)-nHops)
	hopSpan := make([]int32, nHops)
	for h, at := range hopAt {
		hopSpan[h] = tr.add("guard.hop", at[0], at[1], block, sess, int32(h), 1)
	}

	// Hold-last sanitation and health flags, as the detector applies them.
	n := max(len(input)-warm, 0)
	tx, rx, flags := make([]float64, n), make([]float64, n), make([]uint8, n)
	var lastTx, lastRx float64
	for i, s := range input[len(input)-n:] {
		t, r := s.Transmitted, s.Received
		var f uint8
		if math.IsNaN(t) || math.IsInf(t, 0) {
			t, f = lastTx, f|flagGap
		}
		if s.LandmarkLost || math.IsNaN(r) || math.IsInf(r, 0) {
			r, f = lastRx, f|flagGap
			if s.LandmarkLost {
				f |= flagLandmark
			}
		}
		if s.Stale {
			f |= flagStale
		}
		lastTx, lastRx = t, r
		tx[i], rx[i], flags[i] = t, r, f
	}

	// The sliding filter chains, one block span over both signals.
	txc, err := preprocess.NewStreamChain(k.cfg.Preprocess)
	if err != nil {
		return err
	}
	rxc, err := preprocess.NewStreamChain(k.cfg.Preprocess)
	if err != nil {
		return err
	}
	smTx, smRx := make([]float64, 0, n), make([]float64, 0, n)
	a := tr.now()
	for _, v := range tx {
		if o, ok := txc.Push(v); ok {
			smTx = append(smTx, o)
		}
	}
	for _, v := range rx {
		if o, ok := rxc.Push(v); ok {
			smRx = append(smRx, o)
		}
	}
	tr.add("preprocess.chain", a, tr.now(), -1, sess, -1, 2*n)

	// Every hop, re-judged layer by layer.
	h := 0
	for e := w - 1; e < len(smTx); e, h = e+hop, h+1 {
		if h >= nHops {
			return fmt.Errorf("re-judge found more hops than the detector's %d", nHops)
		}
		got, judged := k.rejudge(tr, sess, int32(h), smTx[e-w+1:e+1], smRx[e-w+1:e+1], flags[e-w+1:e+1])
		if !sameResult(got, real[h]) {
			return fmt.Errorf("decomposition mismatch at hop %d: layers give %+v, detector %+v", h, got, real[h])
		}
		if judged != nil {
			if err := k.split(tr, sess, int32(h), judged); err != nil {
				return err
			}
		}
	}
	if h != nHops {
		return fmt.Errorf("re-judge found %d hops, detector %d", h, nHops)
	}

	// Hop self time: the detector's hop minus the layer calls of the same
	// window — ring copy, flag tally, gates and bookkeeping.
	self := selfTimes(tr.spans)
	for i := int(block) + 1; i < len(tr.spans); i++ {
		if s := tr.spans[i]; s.name == "guard.rejudge" {
			layer := s.dur() - self[i]
			hs := tr.spans[hopSpan[s.hop]]
			d.hopSelfNs = append(d.hopSelfNs, float64(hs.dur()-layer))
			d.coveredNs += layer
			d.hopNs += hs.dur()
		}
	}
	d.pushSelfNs += self[block]

	// The batch reference over the same input.
	a = tr.now()
	ref, err := k.det.DetectStreamBatch(input, k.scfg)
	tr.add("guard.batch_reference", a, tr.now(), -1, sess, -1, len(ref))
	if err != nil {
		return err
	}
	// The reference also judges the hops that Finish would flush; the
	// replay stops short of them, so compare the hops both judged.
	if err := sameResults(real, ref[:min(len(real), len(ref))]); err != nil {
		return fmt.Errorf("batch reference: %w", err)
	}
	d.batchNs += tr.spans[len(tr.spans)-1].dur()
	d.batchHops += len(ref)
	return nil
}

// judgedWindow is a window that reached the classifier: the peak
// results and the extractor's output for the split check.
type judgedWindow struct {
	tx, rx preprocess.Result
	v      features.Vector
	detail features.Detail
}

// rejudge judges one window through the public layers, mirroring the
// StreamDetector's gates, with one span per layer call under a
// guard.rejudge span. Windows that reach the classifier come back for
// the split check.
func (k *layerKit) rejudge(tr *tracer, sess, hop int32, winTx, winRx []float64, flags []uint8) (guard.WindowResult, *judgedWindow) {
	start := tr.now()
	root := tr.add("guard.rejudge", start, start, -1, sess, hop, 1)
	defer func() { tr.spans[root].end = tr.now() }()

	var gaps, lmLost, stale int
	for _, f := range flags {
		if f&flagGap != 0 {
			gaps++
		}
		if f&flagLandmark != 0 {
			lmLost++
		}
		if f&flagStale != 0 {
			stale++
		}
	}
	n := float64(len(winTx))
	switch {
	case float64(lmLost)/n > k.scfg.MaxGapRatio:
		return guard.WindowResult{Inconclusive: true, Code: guard.ReasonLandmarkLoss}, nil
	case float64(gaps)/n > k.scfg.MaxGapRatio:
		return guard.WindowResult{Inconclusive: true, Code: guard.ReasonGapRatio}, nil
	case float64(stale)/n > k.scfg.MaxStaleRatio:
		return guard.WindowResult{Inconclusive: true, Code: guard.ReasonStale}, nil
	}

	j := &judgedWindow{}
	a := tr.now()
	j.tx = preprocess.Result{Smoothed: winTx, Peaks: dsp.FindPeaks(winTx, k.cfg.ScreenProminence)}
	b := tr.now()
	j.rx = preprocess.Result{Smoothed: winRx, Peaks: dsp.FindPeaks(winRx, k.cfg.FaceProminence)}
	c := tr.now()
	var err error
	j.v, j.detail, err = features.ExtractWithDetail(&j.tx, &j.rx, k.fcfg)
	e := tr.now()
	tr.add("dsp.find_peaks", a, b, root, sess, hop, 1)
	tr.add("dsp.find_peaks", b, c, root, sess, hop, 1)
	tr.add("features.extract", c, e, root, sess, hop, 1)
	if err != nil {
		return guard.WindowResult{Inconclusive: true, Code: guard.ReasonExtraction}, nil
	}
	if j.detail.TxChanges < k.scfg.MinChallenges {
		return guard.WindowResult{Inconclusive: true, Code: guard.ReasonNoChallenge}, nil
	}
	a = tr.now()
	dec, err := k.model.DetectVector(j.v)
	tr.add("lof.score", a, tr.now(), root, sess, hop, 1)
	if err != nil {
		return guard.WindowResult{Inconclusive: true, Code: guard.ReasonExtraction}, nil
	}
	return guard.WindowResult{Verdict: guard.Verdict{
		Attacker: dec.Attacker,
		Score:    dec.Score,
		Features: [4]float64{j.v.Z1, j.v.Z2, j.v.Z3, j.v.Z4},
	}}, j
}

// split times the extractor's inner stages through their public
// functions — change matching with delay removal, the two Pearson
// correlations and the two banded DTW distances — and checks that they
// reproduce the extractor's z3, z4, match count and delay bit for bit.
// Its spans sit under their own features.split root, outside the hop.
func (k *layerKit) split(tr *tracer, sess, hop int32, j *judgedWindow) error {
	resTx, resRx, v, detail := &j.tx, &j.rx, j.v, j.detail
	start := tr.now()
	root := tr.add("features.split", start, start, -1, sess, hop, 1)
	defer func() { tr.spans[root].end = tr.now() }()
	cfg := k.fcfg

	a := tr.now()
	txT, rxT := resTx.ChangeTimes(), resRx.ChangeTimes()
	coarse := features.MatchChanges(txT, rxT, 0, cfg.MatchToleranceSamples)
	delay := max(features.EstimateDelay(txT, rxT, coarse), 0)
	shifted := make([]int, len(rxT))
	for i, r := range rxT {
		shifted[i] = r - delay
	}
	pairs := features.MatchChanges(txT, shifted, -cfg.RefineToleranceSamples, cfg.RefineToleranceSamples)
	tr.add("features.match", a, tr.now(), root, sess, hop, 1)

	nt := dsp.NormalizeUnit(resTx.Smoothed)
	nr := dsp.NormalizeUnit(dsp.Shift(resRx.Smoothed, -delay))
	t1, t2 := dsp.SplitHalves(nt)
	r1, r2 := dsp.SplitHalves(nr)
	var c [2]float64
	var dist [2]float64
	for i, pair := range [2][2][]float64{{t1, r1}, {t2, r2}} {
		var err error
		a = tr.now()
		c[i], err = dsp.Pearson(pair[0], pair[1])
		b := tr.now()
		tr.add("dsp.pearson", a, b, root, sess, hop, 1)
		if err != nil {
			return fmt.Errorf("split pearson: %w", err)
		}
		dist[i], err = dsp.DTWWindowed(pair[0], pair[1], cfg.DTWBandRadius)
		tr.add("dsp.dtw", b, tr.now(), root, sess, hop, 1)
		if err != nil {
			return fmt.Errorf("split dtw: %w", err)
		}
	}
	z3, z4 := math.Min(c[0], c[1]), math.Max(dist[0], dist[1])/cfg.DTWDivisor
	if math.Float64bits(z3) != math.Float64bits(v.Z3) || math.Float64bits(z4) != math.Float64bits(v.Z4) ||
		len(pairs) != detail.Matched || delay != detail.DelaySamples {
		return fmt.Errorf("decomposition mismatch at hop %d: split stages give z3=%v z4=%v matched=%d delay=%d, extractor z3=%v z4=%v matched=%d delay=%d",
			hop, z3, z4, len(pairs), delay, v.Z3, v.Z4, detail.Matched, detail.DelaySamples)
	}
	return nil
}

// report sets the hop-path per-layer metrics.
func (d *decomp) report(rep *report, tr *tracer) {
	by := byName(tr.spans)
	hops := fmt.Sprintf("base %d hops", d.hops)
	rep.set("preprocess.chain_ns", perCall(tr.spans, "preprocess.chain"), "ns", "per StreamChain.Push, block-timed")
	for _, m := range []struct{ metric, span string }{
		{"dsp.find_peaks_ns", "dsp.find_peaks"},
		{"dsp.dtw_ns", "dsp.dtw"},
		{"dsp.pearson_ns", "dsp.pearson"},
		{"features.match_ns", "features.match"},
		{"features.extract_ns", "features.extract"},
		{"lof.score_ns", "lof.score"},
	} {
		xs := by[m.span]
		rep.set(m.metric, median(xs), "ns", fmt.Sprintf("median of n=%d calls", len(xs)))
	}
	rep.set("guard.hop_self_ns", median(d.hopSelfNs), "ns", fmt.Sprintf("median over n=%d hops of hop minus layer calls", len(d.hopSelfNs)))
	rep.set("guard.push_ns", float64(d.pushSelfNs)/float64(d.pushes), "ns", fmt.Sprintf("per non-hop Push, n=%d", d.pushes))
	rep.set("guard.allocs_per_hop", float64(d.mallocs)/float64(d.hops), "count", hops)
	rep.set("guard.bytes_per_hop", float64(d.bytes)/float64(d.hops), "B", hops)
	rep.set("guard.batch_reference_ns_per_hop", float64(d.batchNs)/float64(d.batchHops), "ns", fmt.Sprintf("DetectStreamBatch, base %d hops", d.batchHops))
	rep.set("harness.layer_coverage_ratio", float64(d.coveredNs)/float64(d.hopNs), "ratio", "layer calls over hop time, "+hops)
}
