package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/guard"
	"repro/trace"
)

// liveSpec sizes a live workload: warm concurrent sessions, each a
// guard.StreamDetector fed at a fixed per-session sample rate.
type liveSpec struct {
	name     string
	sessions int
	rateHz   float64 // per session
	degraded bool
	clips    int     // pool clips sessions read from
	clipSec  float64 // pool clip length
	oracle   int     // sessions checked against DetectStreamBatch
	roundCap int     // closed-loop cap, in samples per session
}

func liveCalls(smoke bool) liveSpec {
	s := liveSpec{name: "live_calls", sessions: 8000, rateHz: 10, clips: 12, clipSec: 60, oracle: 16, roundCap: 400}
	if smoke {
		s.sessions, s.clips, s.clipSec, s.oracle, s.roundCap = 200, 4, 30, 4, 100
	}
	return s
}

func liveDegraded(smoke bool) liveSpec {
	s := liveCalls(smoke)
	s.name, s.degraded = "live_degraded", true
	return s
}

const (
	// setupReps is how many times a run sets up; setup_s is the median.
	setupReps = 3
	// openShare is the open-loop share of the measured seconds.
	openShare = 2.0 / 3
	// hopDeadline is the latest useful verdict: the next hop is due then.
	hopDeadline = 500 * time.Millisecond
	// genLateBound marks a run invalid when the p99 lateness of releases
	// to an idle worker exceeds it: the process was not running when its
	// work fell due.
	genLateBound = 5 * time.Millisecond
	// openAttempts bounds the open-loop retries after an invalid phase.
	openAttempts = 3
)

// liveSession is one call: its detector and its place in the pool.
type liveSession struct {
	sd     *guard.StreamDetector
	clip   []guard.StreamSample
	start  int // clip index of the first sample pushed
	pos    int // clip index of the next sample
	pushed int
}

// next returns the session's next input sample, wrapping around its clip.
func (s *liveSession) next() guard.StreamSample {
	x := s.clip[s.pos]
	if s.pos++; s.pos == len(s.clip) {
		s.pos = 0
	}
	s.pushed++
	return x
}

// input reconstructs every sample the session has pushed.
func (s *liveSession) input() []guard.StreamSample {
	out := make([]guard.StreamSample, s.pushed)
	for i := range out {
		out[i] = s.clip[(s.start+i)%len(s.clip)]
	}
	return out
}

// liveRig is a set-up live workload.
type liveRig struct {
	det      *guard.Detector
	sessions []liveSession
	firstHop int // pushes up to and including the first hop
	hop      int
}

// hopsAt is how many hops a session has completed after n pushes.
func (r *liveRig) hopsAt(n int) int {
	if n < r.firstHop {
		return 0
	}
	return (n-r.firstHop)/r.hop + 1
}

// setupLive trains the detector, builds one StreamDetector per session
// and pre-fills each to one sample short of its first hop, staggering
// the hop phase across sessions so hops arrive evenly.
func setupLive(training []trace.Session, pool [][]guard.StreamSample, place [][2]int) (*liveRig, error) {
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		return nil, err
	}
	cfg := guard.DefaultStreamConfig()
	r := &liveRig{det: det, sessions: make([]liveSession, len(place)), hop: cfg.HopSamples}
	for i, pl := range place {
		sd, err := det.NewStreamDetector(cfg)
		if err != nil {
			return nil, err
		}
		r.firstHop = cfg.WarmupSamples + sd.Latency() + cfg.WindowSamples
		s := liveSession{sd: sd, clip: pool[pl[0]], start: pl[1], pos: pl[1]}
		for k := r.firstHop - 1 - i%cfg.HopSamples; k > 0; k-- {
			sd.Push(s.next())
		}
		r.sessions[i] = s
	}
	return r, nil
}

// openResult is one open-loop phase.
type openResult struct {
	latMs     []float64 // per hop: due time of the closing sample to verdict
	hopNs     []float64 // traced: per hop-closing Push
	genLateMs []float64 // per sample released to an idle worker: release minus due
	samples   int
	elapsed   time.Duration
	late      int // verdicts past hopDeadline
	rate      float64
}

// openLoop releases one sample per session at the fixed rate and pushes
// them in due order. The schedule is kept inline by the worker: it waits
// for each sample's due time, so a stalled pacing thread can never delay
// work, and every verdict is timed from its closing sample's due time.
func (r *liveRig) openLoop(sec, rateHz float64, traced bool) openResult {
	n := len(r.sessions)
	rate := float64(n) * rateHz
	total := int64(sec * rate)
	period := 1e9 / rate
	res := openResult{rate: rate, samples: int(total), genLateMs: make([]float64, 0, total)}
	res.latMs = make([]float64, 0, int(total)/r.hop+n)
	t0 := time.Now()
	for g := int64(0); g < total; g++ {
		due := float64(g) * period
		if el := float64(time.Since(t0)); el < due {
			for el < due {
				el = float64(time.Since(t0))
			}
			res.genLateMs = append(res.genLateMs, (el-due)/1e6)
		}
		s := &r.sessions[g%int64(n)]
		x := s.next()
		var out *guard.WindowResult
		if traced {
			a := time.Now()
			out = s.sd.Push(x)
			if out != nil {
				res.hopNs = append(res.hopNs, float64(time.Since(a)))
			}
		} else {
			out = s.sd.Push(x)
		}
		if out != nil {
			lat := float64(time.Since(t0)) - due
			res.latMs = append(res.latMs, lat/1e6)
			if lat > float64(hopDeadline) {
				res.late++
			}
		}
	}
	// A phase that kept up ends with its last sample's due time.
	res.elapsed = max(time.Since(t0), time.Duration(float64(total)*period))
	return res
}

// closedLoop pushes round after round, every session once per round, as
// fast as the worker goes, until dur passes or maxRounds are done. It
// returns the samples pushed and the process CPU time they took.
func (r *liveRig) closedLoop(dur time.Duration, maxRounds int, traced bool) (int, time.Duration) {
	start, cpu := time.Now(), cpuTime()
	rounds := 0
	for rounds < maxRounds {
		for i := range r.sessions {
			s := &r.sessions[i]
			if traced {
				a := time.Now()
				s.sd.Push(s.next())
				sinkDur += time.Since(a)
			} else {
				s.sd.Push(s.next())
			}
		}
		rounds++
		if time.Since(start) >= dur {
			break
		}
	}
	return rounds * len(r.sessions), cpuTime() - cpu
}

// sinkDur keeps the traced closed loop's timing calls from being
// optimized away.
var sinkDur time.Duration

// liveTally is the accounting of the measured phases.
type liveTally struct {
	ops                        ops
	hops, conclusive, gateExit int
}

// account checks every hop the measured phases should have produced:
// each must exist and carry a verdict or a typed reason.
func (r *liveRig) account(pushedBefore, resultsBefore []int, late int) (liveTally, error) {
	var t liveTally
	for i := range r.sessions {
		s := &r.sessions[i]
		want := r.hopsAt(s.pushed) - r.hopsAt(pushedBefore[i])
		all := s.sd.Results()
		got := all[resultsBefore[i]:]
		if len(got) > want {
			return t, fmt.Errorf("session %d: %d hop results, only %d hops expected", i, len(got), want)
		}
		answered := 0
		for _, w := range got {
			switch {
			case !w.Inconclusive && !math.IsNaN(w.Verdict.Score):
				t.conclusive++
				answered++
			case w.Inconclusive && w.Code != guard.ReasonNone:
				if w.Code == guard.ReasonLandmarkLoss || w.Code == guard.ReasonGapRatio || w.Code == guard.ReasonStale {
					t.gateExit++
				}
				answered++
			}
		}
		t.hops += len(got)
		t.ops.add(outcomeNoVerdict, want-answered)
		t.ops.add(outcomeOK, answered)
	}
	t.ops.expire(late)
	return t, nil
}

// oracleCheck compares every hop of a seeded subset of sessions with
// guard.DetectStreamBatch over the same input. The batch reference also
// judges the hops a Finish would flush from the chain's last samples;
// the live detector has not reached those yet, so only the hops it has
// judged are compared.
func (r *liveRig) oracleCheck(idx []int) error {
	cfg := guard.DefaultStreamConfig()
	for _, i := range idx {
		s := &r.sessions[i]
		want, err := r.det.DetectStreamBatch(s.input(), cfg)
		if err != nil {
			return fmt.Errorf("oracle: session %d: %w", i, err)
		}
		got := s.sd.Results()
		if len(got) != r.hopsAt(s.pushed) {
			return fmt.Errorf("oracle: session %d: %d hop results after %d samples, want %d", i, len(got), s.pushed, r.hopsAt(s.pushed))
		}
		if err := sameResults(got, want[:min(len(got), len(want))]); err != nil {
			return fmt.Errorf("oracle: session %d: %w", i, err)
		}
	}
	return nil
}

// sameResults requires equal hop results: outcome, reason code, and the
// bits of the score and z1..z4.
func sameResults(got, want []guard.WindowResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d hop results, reference has %d", len(got), len(want))
	}
	for k := range got {
		if !sameResult(got[k], want[k]) {
			return fmt.Errorf("hop %d differs: got %+v, reference %+v", k, got[k], want[k])
		}
	}
	return nil
}

func sameResult(a, b guard.WindowResult) bool {
	if a.Inconclusive != b.Inconclusive || a.Code != b.Code || a.Verdict.Attacker != b.Verdict.Attacker ||
		math.Float64bits(a.Verdict.Score) != math.Float64bits(b.Verdict.Score) {
		return false
	}
	for i := range a.Verdict.Features {
		if math.Float64bits(a.Verdict.Features[i]) != math.Float64bits(b.Verdict.Features[i]) {
			return false
		}
	}
	return true
}

// runLive runs one live workload.
func runLive(p params, spec liveSpec) (*report, error) {
	training, err := trainingSet(p.seed)
	if err != nil {
		return nil, err
	}
	pool, err := livePool(p.seed, spec.clips, spec.clipSec, spec.degraded)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.seed))
	place := make([][2]int, spec.sessions)
	for i := range place {
		c := rng.Intn(len(pool))
		place[i] = [2]int{c, rng.Intn(len(pool[c]))}
	}
	oracle := rng.Perm(spec.sessions)[:min(spec.oracle, spec.sessions)]

	rep := newReport()
	reps := setupReps
	if p.traced {
		reps = 1
	}
	var rig *liveRig
	var setupS, heapKB []float64
	for k := 0; k < reps; k++ {
		rig = nil
		base := heapInUse()
		start := time.Now()
		rig, err = setupLive(training, pool, place)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		heapKB = append(heapKB, (float64(heapInUse())-float64(base))/1024/float64(spec.sessions))
	}

	pushedBefore := make([]int, spec.sessions)
	resultsBefore := make([]int, spec.sessions)
	for i := range rig.sessions {
		pushedBefore[i] = rig.sessions[i].pushed
		c, inc := rig.sessions[i].sd.Windows()
		resultsBefore[i] = c + inc
	}

	openSec := p.seconds * openShare
	closedDur := time.Duration((p.seconds - openSec) * float64(time.Second))
	var open openResult
	late, valid := 0, false
	for a := 0; a < openAttempts && !valid; a++ {
		open = rig.openLoop(openSec, spec.rateHz, p.traced)
		late += open.late
		valid = generatorKeptUp(open.genLateMs)
	}
	if !valid {
		return nil, fmt.Errorf("invalid run: release p99 lateness %.3f ms over the %v bound in %d attempts",
			quantile(sortedCopy(open.genLateMs), 0.99), genLateBound, openAttempts)
	}

	// Samples pushed per CPU-second, median of the closed-loop slices.
	closed := func(dur time.Duration, rounds int, traced bool) float64 {
		rate, _ := medianRate(func() (float64, time.Duration, error) {
			n, cpu := rig.closedLoop(dur/closedSlices, rounds/closedSlices, traced)
			return float64(n), cpu, nil
		})
		return rate
	}
	// Every run starts the closed loop from a fresh collection cycle, so
	// the cycles it pays for do not depend on where the open loop left off.
	runtime.GC()
	var perCore, overhead float64
	if p.traced {
		// Equal halves untraced then traced: the throughput difference is
		// the cost of timing every Push.
		untraced := closed(closedDur/2, spec.roundCap/2, false)
		overhead = untraced/closed(closedDur/2, spec.roundCap/2, true) - 1
	} else {
		perCore = closed(closedDur, spec.roundCap, false) / spec.rateHz
	}

	tally, err := rig.account(pushedBefore, resultsBefore, late)
	if err != nil {
		return nil, err
	}
	rep.ops = tally.ops
	if err := rig.oracleCheck(oracle); err != nil {
		return nil, err
	}
	if err := checkLiveValidity(spec, tally); err != nil && !p.smoke {
		return nil, err
	}

	if !p.traced {
		lat := summarize(open.latMs)
		if !supported(lat.n, 0.99) && !p.smoke {
			return nil, fmt.Errorf("invalid run: %d open-loop verdicts cannot carry a p99", lat.n)
		}
		rep.set("verdict_p50_ms", lat.p50, "ms", fmt.Sprintf("n=%d verdicts, open loop at %.0f samples/s; p99 %.4g ms", lat.n, open.rate, lat.p99))
		rep.set("sessions_per_core", perCore, "sessions", "closed loop: call-seconds judged per process CPU-second, 1 worker, median of 5 slices")
		rep.set("answered_ratio", tally.ops.answeredRatio(), "ratio", fmt.Sprintf("base %d expected hops", tally.ops.attempted()))
		rep.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
		rep.set("heap_kb_per_session", median(heapKB), "KiB", fmt.Sprintf("%d sessions", spec.sessions))
		return rep, nil
	}

	lat := summarize(open.latMs)
	rep.set("verdict_p99_ms", lat.p99, "ms", fmt.Sprintf("n=%d verdicts, open loop at %.0f samples/s, every Push timed", lat.n, open.rate))
	hop := summarize(open.hopNs)
	rep.set("guard.hop_ns_p50", hop.p50, "ns", fmt.Sprintf("n=%d hop-closing Push calls under open-loop load", hop.n))
	rep.set("guard.hop_ns_p99", hop.p99, "ns", fmt.Sprintf("n=%d", hop.n))
	rep.set("guard.conclusive_ratio", float64(tally.conclusive)/float64(tally.hops), "ratio", fmt.Sprintf("base %d hops", tally.hops))
	rep.set("guard.gate_exit_ratio", float64(tally.gateExit)/float64(tally.hops), "ratio", fmt.Sprintf("base %d hops", tally.hops))
	setHarness(rep, open.genLateMs, open.rate, float64(open.samples)/open.elapsed.Seconds(), overhead)

	tr := newTracer()
	kit, err := newLayerKit(rig.det, training)
	if err != nil {
		return nil, err
	}
	var d decomp
	for k, i := range oracle {
		if err := kit.decompose(tr, &d, int32(k), rig.sessions[i].input()); err != nil {
			return nil, fmt.Errorf("decomposition: session %d: %w", i, err)
		}
	}
	d.report(rep, tr)
	// The live path never parks: the state-path layers come from a short
	// companion run of the segmented path on the same seed.
	if err := companionSegmented(p, training, rep, tr); err != nil {
		return nil, err
	}
	return rep, writeSpans(p.spansDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, p.seed), tr.spans)
}

// checkLiveValidity rejects a run whose inputs no longer exercise what
// the workload exists for.
func checkLiveValidity(spec liveSpec, t liveTally) error {
	if t.hops == 0 {
		return fmt.Errorf("invalid run: no hops judged")
	}
	if spec.degraded {
		if r := float64(t.gateExit) / float64(t.hops); r < 0.5 {
			return fmt.Errorf("invalid run: only %.2f of %d degraded hops exit at a capture gate", r, t.hops)
		}
		return nil
	}
	if r := float64(t.conclusive) / float64(t.hops); r < 0.5 {
		return fmt.Errorf("invalid run: only %.2f of %d clean hops are conclusive", r, t.hops)
	}
	return nil
}

// setHarness reports generator health and the tracing overhead.
func setHarness(rep *report, genLateMs []float64, offered, achieved float64, overhead float64) {
	late := summarize(sortedCopy(genLateMs))
	rep.set("harness.gen_late_p99_ms", late.p99, "ms", fmt.Sprintf("n=%d releases, bound %v", late.n, genLateBound))
	rep.set("harness.offered_rate", offered, "1/s", "open loop, fixed")
	rep.set("harness.achieved_rate", achieved, "1/s", "open loop")
	rep.set("harness.trace_overhead_ratio", overhead, "ratio", "closed-loop cost traced over untraced, minus 1")
}

// generatorKeptUp reports whether the open loop released its work on
// time: the p99 release lateness is within genLateBound. A phase in which
// the worker never waited released nothing late.
func generatorKeptUp(lateMs []float64) bool {
	return len(lateMs) == 0 || quantile(sortedCopy(lateMs), 0.99) <= ms(genLateBound)
}

func sortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}
