package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/guard"
	"repro/internal/admission"
	"repro/internal/chat"
	"repro/internal/luminance"
	"repro/internal/sessionstore"
	"repro/trace"
)

// segSpec sizes the segmented workload: concurrent calls, each judged in
// fixed segments through chat.Scheduler with a tiered session store
// behind it, as vcguard serve -state-dir runs them.
type segSpec struct {
	name      string
	calls     int     // concurrent calls
	segments  int     // segments per call
	segSec    float64 // call seconds per segment
	rate      float64 // open-loop segments per second, all calls together
	maxHot    int     // decoded sessions the store keeps
	queue     int     // admission queue capacity
	ckptEvery int     // submitted segments between checkpoints
	decompose int     // calls replayed through the layers when traced
}

func segmentedCalls(smoke bool) segSpec {
	s := segSpec{name: "segmented_calls", calls: 32, segments: 60, segSec: 5, rate: 110, maxHot: 2, queue: 64, ckptEvery: 32, decompose: 4}
	if smoke {
		s.calls, s.segments, s.rate, s.decompose = 6, 8, 40, 2
	}
	return s
}

// companionSpec is the short segmented run that supplies the state-path
// layers to a traced live run.
func companionSpec(smoke bool) segSpec {
	s := segmentedCalls(smoke)
	s.name, s.calls = "companion", max(s.calls/4, 4*s.maxHot)
	s.rate *= float64(s.calls) / float64(segmentedCalls(smoke).calls)
	return s
}

// segState is one call's cross-segment progress, the shape vcguard
// serve parks: the exported detector plus the segment count.
type segState struct {
	ID     string            `json:"id"`
	Done   int               `json:"done"`
	Total  int               `json:"total"`
	Stream guard.StreamState `json:"stream"`
}

// segProgress is a non-final segment's verdict.
type segProgress struct{ Done, Total int }

// segJob is one submitted segment. The generator fills the first block
// before Submit; the worker fills the rest before the result is
// delivered, so the generator reads them after receiving it.
type segJob struct {
	seg        int
	open       bool // released by the open-loop phase
	due        time.Time
	submit     time.Time
	firstFrame time.Time
	judgeStart time.Time
	judgeEnd   time.Time
	rehydrate  [2]time.Time
	face       [2]time.Time
	resume     [2]time.Time
	export     [2]time.Time
	park       [2]time.Time
	resumed    bool
	warm       bool
	hopNs      []float64 // traced: per hop-closing Push
}

// segCall is one call slot. A slot whose call finishes starts a new call
// (the next generation) so that the number of live calls stays fixed.
type segCall struct {
	slot, gen int
	id        string
	submitted int                  // segments submitted this generation
	samples   []guard.StreamSample // every sample the judge pushed, in order
	pending   <-chan chat.SessionResult
	job       *segJob
}

// finishedCall is a completed call kept for the oracle.
type finishedCall struct {
	id      string
	samples []guard.StreamSample
	report  guard.StreamReport
}

// segBench is a set-up segmented workload.
type segBench struct {
	spec   segSpec
	seed   int64
	traced bool
	det    *guard.Detector
	store  *sessionstore.Store[segState]
	bound  *sessionstore.Bound[segState]
	sched  *chat.Scheduler
	calls  []*segCall

	ckpt     chan struct{}
	ckptStop chan struct{}
	ckptWG   sync.WaitGroup
	ckptMs   []float64

	jobs     []*segJob
	finished []finishedCall
	ops      ops
	shed     int
}

// segSeed derives a segment's capture seed.
func segSeed(seed int64, slot, gen, seg int) int64 {
	return seed*7_368_787 + int64(slot)*1_000_003 + int64(gen)*10_007 + int64(seg)*101
}

func callID(slot, gen int) string { return fmt.Sprintf("call-%03d-%d", slot, gen) }

// slotOf recovers the call slot from a call ID.
func slotOf(id string) int {
	n, err := strconv.Atoi(id[5:8])
	if err != nil {
		panic("perfbench: malformed call id " + id)
	}
	return n
}

// stampSource records when the scheduler first asks the peer for a frame.
type stampSource struct {
	chat.Source
	job *segJob
}

func (s *stampSource) Frame(eScreenLux, dt float64) (chat.PeerFrame, error) {
	if s.job.firstFrame.IsZero() {
		s.job.firstFrame = time.Now()
	}
	return s.Source.Frame(eScreenLux, dt)
}

// timedStates times the scheduler's rehydrations and notes which tier
// each came from. One worker touches the store, so the tier counts
// around the call attribute it exactly.
type timedStates struct {
	b *segBench
}

func (t timedStates) Rehydrate(id string) (any, bool, error) {
	job := t.b.calls[slotOf(id)].job
	_, warm := t.b.store.Len()
	a := time.Now()
	st, ok, err := t.b.bound.Rehydrate(id)
	job.rehydrate = [2]time.Time{a, time.Now()}
	_, warmAfter := t.b.store.Len()
	job.resumed, job.warm = ok, warmAfter < warm
	return st, ok, err
}

func (t timedStates) Park(id string, prio admission.Priority, state any) error {
	return t.b.bound.Park(id, prio, state)
}

func (t timedStates) Discard(id string) { t.b.bound.Discard(id) }

// judge advances one call by one segment, as vcguard serve's judgeSeg
// does: extract the face signal, resume (or start) the stream detector,
// push the segment, then park the exported state or finish the call.
func (b *segBench) judge(id string, tr *chat.Trace, prior *segState) (any, error) {
	c := b.calls[slotOf(id)]
	j := c.job
	j.judgeStart = time.Now()
	defer func() { j.judgeEnd = time.Now() }()
	ex, err := luminance.New(luminance.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	a := time.Now()
	rx, err := ex.FaceSignal(tr.Peer)
	j.face = [2]time.Time{a, time.Now()}
	if err != nil {
		return nil, err
	}
	st := segState{ID: id, Total: b.spec.segments}
	var sd *guard.StreamDetector
	a = time.Now()
	if prior != nil {
		st = *prior
		sd, err = b.det.ResumeStreamDetector(prior.Stream)
	} else {
		sd, err = b.det.NewStreamDetector(guard.DefaultStreamConfig())
	}
	j.resume = [2]time.Time{a, time.Now()}
	if err != nil {
		return nil, err
	}
	for i := range tr.T {
		x := guard.StreamSample{Transmitted: tr.T[i], Received: rx[i]}
		c.samples = append(c.samples, x)
		if b.traced {
			a := time.Now()
			if sd.Push(x) != nil {
				j.hopNs = append(j.hopNs, float64(time.Since(a)))
			}
		} else {
			sd.Push(x)
		}
	}
	st.Done++
	if st.Done < st.Total {
		a = time.Now()
		st.Stream = sd.Export()
		e := time.Now()
		err := b.store.Put(id, admission.Standard, st)
		j.export, j.park = [2]time.Time{a, e}, [2]time.Time{e, time.Now()}
		if err != nil {
			return nil, fmt.Errorf("park: %w", err)
		}
		return segProgress{Done: st.Done, Total: st.Total}, nil
	}
	sd.Finish()
	return finalReport(sd)
}

// finalReport summarizes a finished detector, as vcguard serve does.
func finalReport(sd *guard.StreamDetector) (guard.StreamReport, error) {
	rep := guard.StreamReport{Results: sd.Results()}
	rep.Conclusive, rep.Inconclusive = sd.Windows()
	for _, r := range rep.Results {
		if !r.Inconclusive && r.Verdict.Attacker {
			rep.AttackerVotes++
		}
	}
	if rep.Conclusive > 0 {
		var err error
		if rep.Flagged, err = sd.Flagged(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// prefill is the segment samples each call has already been judged on
// when the measurement starts: call i is i/calls of the way through, so
// that calls finish, and restart, evenly spread over the run.
func prefill(spec segSpec, seed int64) ([][]guard.StreamSample, error) {
	out := make([][]guard.StreamSample, spec.calls)
	err := parallel(spec.calls, func(c int) error {
		for k := 0; k < c*spec.segments/spec.calls; k++ {
			s, err := captureSegment(callID(c, 0), segSeed(seed, c, 0, k), spec.segSec)
			if err != nil {
				return err
			}
			out[c] = append(out[c], s...)
		}
		return nil
	})
	return out, err
}

// captureSegment renders one segment outside the scheduler and extracts
// the samples the judge would push.
func captureSegment(id string, seed int64, sec float64) ([]guard.StreamSample, error) {
	req, err := segmentRequest(id, seed, sec)
	if err != nil {
		return nil, err
	}
	tr, err := chat.RunSession(req.Config, req.Verifier, req.Peer)
	if err != nil {
		return nil, err
	}
	ex, err := luminance.New(luminance.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		return nil, err
	}
	rx, err := ex.FaceSignal(tr.Peer)
	if err != nil {
		return nil, err
	}
	out := make([]guard.StreamSample, len(tr.T))
	for i := range out {
		out[i] = guard.StreamSample{Transmitted: tr.T[i], Received: rx[i]}
	}
	return out, nil
}

// newCalls builds the call slots and their sample logs, seeded with the
// pre-fill. The logs are the oracle's record, not the system's state, so
// they are allocated before set-up is timed and its heap measured.
func newCalls(spec segSpec, pre [][]guard.StreamSample) []*segCall {
	perSeg := int(spec.segSec * sampleHz)
	calls := make([]*segCall, len(pre))
	for slot, samples := range pre {
		calls[slot] = &segCall{slot: slot, id: callID(slot, 0), submitted: len(samples) / perSeg,
			samples: append(make([]guard.StreamSample, 0, spec.segments*perSeg), samples...)}
	}
	return calls
}

// setupSegmented trains the detector, builds the store and scheduler,
// and parks every call's pre-filled state.
func setupSegmented(spec segSpec, seed int64, traced bool, training []trace.Session, calls []*segCall) (*segBench, error) {
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), training)
	if err != nil {
		return nil, err
	}
	store, err := sessionstore.New[segState](sessionstore.Config{MaxHot: spec.maxHot}, sessionstore.JSONCodec[segState]{})
	if err != nil {
		return nil, err
	}
	b := &segBench{spec: spec, seed: seed, traced: traced, det: det, store: store, bound: sessionstore.Bind(store),
		calls: calls, ckpt: make(chan struct{}, 1), ckptStop: make(chan struct{})}
	b.sched, err = chat.NewScheduler(chat.SchedulerConfig{
		Workers:        1,
		SessionTimeout: time.Minute,
		Admission:      &chat.AdmissionConfig{QueueCapacity: spec.queue},
		States:         timedStates{b},
		Judge:          func(id string, tr *chat.Trace) (any, error) { return b.judge(id, tr, nil) },
		JudgeResumed: func(id string, tr *chat.Trace, resumed any) (any, error) {
			st, ok := resumed.(segState)
			if !ok {
				return nil, fmt.Errorf("resumed state is %T, want segState", resumed)
			}
			return b.judge(id, tr, &st)
		},
		Salvage: func(id string, partial *chat.Trace, resumed any) (any, error) {
			if st, ok := resumed.(segState); ok {
				return st, nil
			}
			return nil, nil
		},
	})
	if err != nil {
		return nil, err
	}
	for _, c := range calls {
		if c.submitted == 0 {
			continue
		}
		sd, err := det.NewStreamDetector(guard.DefaultStreamConfig())
		if err == nil {
			for _, x := range c.samples {
				sd.Push(x)
			}
			err = store.Put(c.id, admission.Standard, segState{ID: c.id, Done: c.submitted, Total: spec.segments, Stream: sd.Export()})
		}
		if err != nil {
			b.sched.Close()
			return nil, err
		}
	}
	b.ckptWG.Add(1)
	go b.checkpointer()
	return b, nil
}

// checkpointer snapshots the store into memory each time the generator
// asks, so reads, writes and a snapshot share the store lock.
func (b *segBench) checkpointer() {
	defer b.ckptWG.Done()
	var buf bytes.Buffer
	for {
		select {
		case <-b.ckpt:
			buf.Reset()
			a := time.Now()
			if _, err := b.store.Checkpoint(&buf); err != nil {
				panic(fmt.Sprintf("perfbench: checkpoint: %v", err))
			}
			b.ckptMs = append(b.ckptMs, ms(time.Since(a)))
		case <-b.ckptStop:
			return
		}
	}
}

// close stops the scheduler and the checkpointer.
func (b *segBench) close() {
	b.sched.Close()
	close(b.ckptStop)
	b.ckptWG.Wait()
}

// submit releases call c's next segment, starting a new call in the slot
// when the previous one has finished.
func (b *segBench) submit(c *segCall, due time.Time, open bool) error {
	if c.submitted == b.spec.segments {
		c.gen++
		c.id, c.submitted = callID(c.slot, c.gen), 0
		c.samples = make([]guard.StreamSample, 0, cap(c.samples))
	}
	req, err := segmentRequest(c.id, segSeed(b.seed, c.slot, c.gen, c.submitted), b.spec.segSec)
	if err != nil {
		return err
	}
	j := &segJob{seg: c.submitted, open: open, due: due}
	req.Peer = &stampSource{Source: req.Peer, job: j}
	c.job = j
	j.submit = time.Now()
	ch, err := b.sched.Submit(context.Background(), req)
	if errors.Is(err, admission.ErrShed) {
		b.ops.add(outcomeShed, 1)
		b.shed++
		return nil
	}
	if err != nil {
		return err
	}
	c.pending = ch
	c.submitted++
	b.jobs = append(b.jobs, j)
	if len(b.jobs)%b.spec.ckptEvery == 0 {
		select {
		case b.ckpt <- struct{}{}:
		default:
		}
	}
	return nil
}

// settle takes a segment's result. A call whose segment failed cannot be
// continued faithfully: its state is dropped and the slot starts a new
// call.
func (b *segBench) settle(c *segCall, res chat.SessionResult, deadline time.Duration) {
	c.pending = nil
	j := c.job
	outcome := outcomeOK
	switch v := res.Verdict.(type) {
	case segProgress:
	case guard.StreamReport:
		b.finished = append(b.finished, finishedCall{id: c.id, samples: c.samples, report: v})
	default:
		outcome = outcomeNoVerdict
	}
	switch {
	case errors.Is(res.Err, admission.ErrShed):
		outcome = outcomeShed
		b.shed++
	case res.Err != nil || res.RehydrateErr != nil:
		outcome = outcomeError
	case outcome == outcomeOK && j.open && j.judgeEnd.Sub(j.due) > deadline:
		outcome = outcomeTimedOut
	}
	b.ops.add(outcome, 1)
	if outcome != outcomeOK && outcome != outcomeTimedOut {
		fmt.Printf("segment %s/%d failed: %v\n", c.id, j.seg, errors.Join(res.Err, res.RehydrateErr))
		b.bound.Discard(c.id)
		c.submitted = b.spec.segments
	}
}

// openLoop releases segments round-robin over the calls at the fixed
// rate from this goroutine, which sleeps until each is due. A call's next
// segment waits for its previous one, which is the call's own backlog
// and counts in its latency. It returns each release's lateness.
func (b *segBench) openLoop(sec float64) ([]float64, error) {
	interval := time.Duration(float64(time.Second) / b.spec.rate)
	deadline := time.Duration(len(b.calls)) * interval
	var late []float64
	t0 := time.Now().Add(time.Millisecond)
	for i := 0; ; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if due.Sub(t0).Seconds() >= sec {
			break
		}
		c := b.calls[i%len(b.calls)]
		time.Sleep(time.Until(due))
		late = append(late, ms(time.Since(due)))
		if c.pending != nil {
			b.settle(c, <-c.pending, deadline)
		}
		if err := b.submit(c, due, true); err != nil {
			return nil, err
		}
	}
	for _, c := range b.calls {
		if c.pending != nil {
			b.settle(c, <-c.pending, deadline)
		}
	}
	return late, nil
}

// closedLoop keeps one segment of every call in flight for dur and
// returns the call-seconds judged per CPU-second of the process, median
// of closedSlices slices. The single worker takes the admission queue in
// order, so waiting on the oldest submitted segment never idles it.
func (b *segBench) closedLoop(dur time.Duration) (float64, error) {
	var fifo []*segCall
	for _, c := range b.calls {
		if err := b.submit(c, time.Now(), false); err != nil {
			return 0, err
		}
		fifo = append(fifo, c)
	}
	rate, err := medianRate(func() (float64, time.Duration, error) {
		start, cpu := time.Now(), cpuTime()
		judged := 0
		for time.Since(start) < dur/closedSlices {
			c := fifo[0]
			fifo = append(fifo[1:], c)
			if c.pending != nil {
				b.settle(c, <-c.pending, 0)
				judged++
			}
			if err := b.submit(c, time.Now(), false); err != nil {
				return 0, 0, err
			}
		}
		return float64(judged) * b.spec.segSec, cpuTime() - cpu, nil
	})
	for _, c := range fifo {
		if c.pending != nil {
			b.settle(c, <-c.pending, 0)
		}
	}
	return rate, err
}

// oracle checks every call: finished calls' final reports, and calls
// still running finished from their parked state, each against one
// uninterrupted DetectStreamSamples over the samples the judge pushed.
// It returns the JSON size of every parked state it took.
func (b *segBench) oracle() ([]float64, []guard.StreamReport, error) {
	cfg := guard.DefaultStreamConfig()
	var stateKB []float64
	var reports []guard.StreamReport
	check := func(id string, samples []guard.StreamSample, got guard.StreamReport) error {
		want, err := b.det.DetectStreamSamples(samples, cfg)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", id, err)
		}
		if err := sameResults(got.Results, want.Results); err != nil {
			return fmt.Errorf("oracle: %s: %w", id, err)
		}
		if got.Conclusive != want.Conclusive || got.Inconclusive != want.Inconclusive ||
			got.AttackerVotes != want.AttackerVotes || got.Flagged != want.Flagged {
			return fmt.Errorf("oracle: %s: report %d/%d/%d/%v, reference %d/%d/%d/%v", id,
				got.Conclusive, got.Inconclusive, got.AttackerVotes, got.Flagged,
				want.Conclusive, want.Inconclusive, want.AttackerVotes, want.Flagged)
		}
		reports = append(reports, got)
		return nil
	}
	for _, f := range b.finished {
		if err := check(f.id, f.samples, f.report); err != nil {
			return nil, nil, err
		}
	}
	for _, c := range b.calls {
		if c.submitted == 0 || c.submitted == b.spec.segments {
			continue
		}
		st, ok, err := b.store.Take(c.id)
		if err != nil || !ok {
			return nil, nil, fmt.Errorf("oracle: %s: parked state missing (%v)", c.id, err)
		}
		raw, err := json.Marshal(st)
		if err != nil {
			return nil, nil, err
		}
		stateKB = append(stateKB, float64(len(raw))/1024)
		sd, err := b.det.ResumeStreamDetector(st.Stream)
		if err != nil {
			return nil, nil, fmt.Errorf("oracle: %s: %w", c.id, err)
		}
		sd.Finish()
		rep, err := finalReport(sd)
		if err != nil {
			return nil, nil, err
		}
		if err := check(c.id, c.samples, rep); err != nil {
			return nil, nil, err
		}
	}
	return stateKB, reports, nil
}

// segRun is one measured segmented run.
type segRun struct {
	b            *segBench
	lateMs       []float64
	perCore      float64
	overhead     float64
	stateKB      []float64
	reports      []guard.StreamReport
	openJobs     int
	openDuration time.Duration
}

// measure sets up once, runs both phases, closes the bench and checks
// the oracle. Traced runs split the closed loop into an untraced and a
// traced half.
func measure(spec segSpec, p params, training []trace.Session, pre [][]guard.StreamSample, traced bool, seconds float64) (*segRun, error) {
	b, err := setupSegmented(spec, p.seed, traced, training, newCalls(spec, pre))
	if err != nil {
		return nil, err
	}
	r := &segRun{b: b}
	closed := false
	defer func() {
		if !closed {
			b.close()
		}
	}()
	openSec := seconds * openShare
	closedDur := time.Duration((seconds - openSec) * float64(time.Second))
	valid := false
	for a := 0; a < openAttempts && !valid; a++ {
		first, start := len(b.jobs), time.Now()
		if r.lateMs, err = b.openLoop(openSec); err != nil {
			return nil, err
		}
		r.openJobs, r.openDuration = len(b.jobs)-first, time.Since(start)
		valid = generatorKeptUp(r.lateMs)
		if !valid {
			for _, j := range b.jobs[first:] {
				j.open = false // a discarded attempt's latencies are not reported
			}
		}
	}
	if !valid {
		return nil, fmt.Errorf("invalid run: generator p99 lateness %.3f ms over the %v bound", quantile(sortedCopy(r.lateMs), 0.99), genLateBound)
	}
	if traced {
		b.traced = false
		c0, err := b.closedLoop(closedDur / 2)
		if err != nil {
			return nil, err
		}
		b.traced = true
		c1, err := b.closedLoop(closedDur / 2)
		if err != nil {
			return nil, err
		}
		r.perCore, r.overhead = (c0+c1)/2, c0/c1-1
	} else if r.perCore, err = b.closedLoop(closedDur); err != nil {
		return nil, err
	}
	b.close()
	closed = true
	if r.stateKB, r.reports, err = b.oracle(); err != nil {
		return nil, err
	}
	return r, nil
}

// segmentStats are the per-segment timings of a run.
type segmentStats struct {
	lat, queueWait                    []float64 // open-loop segments, ms
	capture, judge, onWorker          []float64 // ms
	face, resume, export, park, rehyd []float64 // us
	hopNs                             []float64
	resumed, warm                     int
}

func (r *segRun) stats() segmentStats {
	var s segmentStats
	us := func(t [2]time.Time) float64 { return float64(t[1].Sub(t[0])) / 1e3 }
	for _, j := range r.b.jobs {
		if j.judgeEnd.IsZero() || j.firstFrame.IsZero() {
			continue
		}
		if j.open {
			s.lat = append(s.lat, ms(j.judgeEnd.Sub(j.due)))
			s.queueWait = append(s.queueWait, ms(j.firstFrame.Sub(j.submit)))
		}
		s.capture = append(s.capture, ms(j.judgeStart.Sub(j.firstFrame)))
		s.judge = append(s.judge, ms(j.judgeEnd.Sub(j.judgeStart)))
		s.onWorker = append(s.onWorker, ms(j.judgeEnd.Sub(j.rehydrate[0])))
		s.face = append(s.face, us(j.face))
		if !j.park[0].IsZero() {
			s.export = append(s.export, us(j.export))
			s.park = append(s.park, us(j.park))
		}
		if j.resumed {
			s.resumed++
			s.resume = append(s.resume, us(j.resume))
			s.rehyd = append(s.rehyd, us(j.rehydrate))
			if j.warm {
				s.warm++
			}
		}
		s.hopNs = append(s.hopNs, j.hopNs...)
	}
	return s
}

// check rejects a run that no longer exercises the state path.
func (s segmentStats) check() error {
	if s.resumed == 0 {
		return fmt.Errorf("invalid run: no segment resumed parked state")
	}
	if r := float64(s.warm) / float64(s.resumed); r < 0.5 {
		return fmt.Errorf("invalid run: only %.2f of %d rehydrates came from the warm tier", r, s.resumed)
	}
	if c, w := mean(s.capture), mean(s.onWorker); c > w/5 {
		return fmt.Errorf("invalid run: capture takes %.3f of %.3f ms per segment, over a fifth", c, w)
	}
	return nil
}

// setStateLayers reports the state-path and scheduler layers.
func (r *segRun) setStateLayers(rep *report, s segmentStats) {
	b := r.b
	qw := summarize(s.queueWait)
	rep.set("chat.queue_wait_ms_p50", qw.p50, "ms", fmt.Sprintf("n=%d open-loop segments, Submit to first peer frame", qw.n))
	rep.set("chat.queue_wait_ms_p99", qw.p99, "ms", fmt.Sprintf("n=%d", qw.n))
	rep.set("chat.capture_ms", median(s.capture), "ms", fmt.Sprintf("median of n=%d segments (simulator share)", len(s.capture)))
	rep.set("chat.judge_ms", median(s.judge), "ms", fmt.Sprintf("median of n=%d segments", len(s.judge)))
	rep.set("luminance.face_signal_us", median(s.face), "us", fmt.Sprintf("median of n=%d FaceSignal calls", len(s.face)))
	rep.set("guard.export_us", median(s.export), "us", fmt.Sprintf("median of n=%d", len(s.export)))
	rep.set("guard.resume_us", median(s.resume), "us", fmt.Sprintf("median of n=%d", len(s.resume)))
	park, rehyd := summarize(s.park), summarize(s.rehyd)
	rep.set("sessionstore.park_us_p50", park.p50, "us", fmt.Sprintf("n=%d Store.Put", park.n))
	rep.set("sessionstore.park_us_p99", park.p99, "us", fmt.Sprintf("n=%d", park.n))
	rep.set("sessionstore.rehydrate_us_p50", rehyd.p50, "us", fmt.Sprintf("n=%d rehydrates", rehyd.n))
	rep.set("sessionstore.rehydrate_us_p99", rehyd.p99, "us", fmt.Sprintf("n=%d", rehyd.n))
	rep.set("sessionstore.warm_rehydrate_ratio", float64(s.warm)/float64(s.resumed), "ratio", fmt.Sprintf("base %d rehydrates", s.resumed))
	rep.set("sessionstore.state_kb", mean(r.stateKB), "KiB", fmt.Sprintf("mean JSON size of %d parked states", len(r.stateKB)))
	rep.set("sessionstore.checkpoint_ms", median(b.ckptMs), "ms", fmt.Sprintf("median of n=%d in-memory checkpoints", len(b.ckptMs)))
	rep.set("admission.shed_ratio", float64(b.shed)/float64(b.ops.attempted()), "ratio", fmt.Sprintf("base %d submits", b.ops.attempted()))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runSegmented runs the segmented workload.
func runSegmented(p params, spec segSpec) (*report, error) {
	training, err := trainingSet(p.seed)
	if err != nil {
		return nil, err
	}
	pre, err := prefill(spec, p.seed)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if !p.traced {
		var setupS, heapKB []float64
		for k := 0; k < setupReps; k++ {
			calls := newCalls(spec, pre)
			base := heapInUse()
			start := time.Now()
			b, err := setupSegmented(spec, p.seed, false, training, calls)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, time.Since(start).Seconds())
			heapKB = append(heapKB, (float64(heapInUse())-float64(base))/1024/float64(spec.calls))
			b.close()
		}
		r, err := measure(spec, p, training, pre, false, p.seconds)
		if err != nil {
			return nil, err
		}
		s := r.stats()
		if err := s.check(); err != nil && !p.smoke {
			return nil, err
		}
		rep.ops = r.b.ops
		lat := summarize(s.lat)
		if !supported(lat.n, 0.99) && !p.smoke {
			return nil, fmt.Errorf("invalid run: %d open-loop segments cannot carry a p99", lat.n)
		}
		rep.set("verdict_p50_ms", lat.p50, "ms", fmt.Sprintf("n=%d segments, open loop at %.0f segments/s; p99 %.4g ms", lat.n, spec.rate, lat.p99))
		rep.set("sessions_per_core", r.perCore, "sessions", "closed loop: call-seconds judged per process CPU-second, 1 worker, median of 5 slices")
		rep.set("answered_ratio", r.b.ops.answeredRatio(), "ratio", fmt.Sprintf("base %d submitted segments", r.b.ops.attempted()))
		rep.set("setup_s", median(setupS), "s", fmt.Sprintf("median of %d set-ups", len(setupS)))
		rep.set("heap_kb_per_session", median(heapKB), "KiB", fmt.Sprintf("store footprint per parked call, %d calls", spec.calls))
		return rep, nil
	}

	r, err := measure(spec, p, training, pre, true, p.seconds)
	if err != nil {
		return nil, err
	}
	s := r.stats()
	if err := s.check(); err != nil && !p.smoke {
		return nil, err
	}
	rep.ops = r.b.ops
	r.setStateLayers(rep, s)
	lat := summarize(s.lat)
	rep.set("verdict_p99_ms", lat.p99, "ms", fmt.Sprintf("n=%d segments, open loop at %.0f segments/s", lat.n, spec.rate))
	hop := summarize(s.hopNs)
	rep.set("guard.hop_ns_p50", hop.p50, "ns", fmt.Sprintf("n=%d hop-closing Push calls in the judge", hop.n))
	rep.set("guard.hop_ns_p99", hop.p99, "ns", fmt.Sprintf("n=%d", hop.n))
	var hops, conclusive, gated int
	for _, rp := range r.reports {
		for _, w := range rp.Results {
			hops++
			switch {
			case !w.Inconclusive:
				conclusive++
			case w.Code == guard.ReasonLandmarkLoss || w.Code == guard.ReasonGapRatio || w.Code == guard.ReasonStale:
				gated++
			}
		}
	}
	rep.set("guard.conclusive_ratio", float64(conclusive)/float64(hops), "ratio", fmt.Sprintf("base %d hops", hops))
	rep.set("guard.gate_exit_ratio", float64(gated)/float64(hops), "ratio", fmt.Sprintf("base %d hops", hops))
	setHarness(rep, r.lateMs, spec.rate, float64(r.openJobs)/r.openDuration.Seconds(), r.overhead)

	tr := newTracer()
	kit, err := newLayerKit(r.b.det, training)
	if err != nil {
		return nil, err
	}
	var d decomp
	for k, f := range r.b.finished[:min(spec.decompose, len(r.b.finished))] {
		if err := kit.decompose(tr, &d, int32(k), f.samples); err != nil {
			return nil, fmt.Errorf("decomposition: %s: %w", f.id, err)
		}
	}
	d.report(rep, tr)
	r.spans(tr)
	return rep, writeSpans(p.spansDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, p.seed), tr.spans)
}

// spans records each segment as a span tree: the segment from Submit to
// verdict, with queue wait, rehydrate, capture and judge under it, and
// the judge's layer calls under the judge.
func (r *segRun) spans(tr *tracer) {
	for i, j := range r.b.jobs {
		if j.judgeEnd.IsZero() || j.firstFrame.IsZero() {
			continue
		}
		id, seg := int32(i), int32(j.seg)
		root := tr.add("chat.segment", tr.at(j.submit), tr.at(j.judgeEnd), -1, id, seg, 1)
		tr.add("chat.queue_wait", tr.at(j.submit), tr.at(j.firstFrame), root, id, seg, 1)
		if !j.rehydrate[0].IsZero() {
			tr.add("sessionstore.rehydrate", tr.at(j.rehydrate[0]), tr.at(j.rehydrate[1]), root, id, seg, 1)
		}
		tr.add("chat.capture", tr.at(j.firstFrame), tr.at(j.judgeStart), root, id, seg, 1)
		judge := tr.add("chat.judge", tr.at(j.judgeStart), tr.at(j.judgeEnd), root, id, seg, 1)
		tr.add("luminance.face_signal", tr.at(j.face[0]), tr.at(j.face[1]), judge, id, seg, 1)
		tr.add("guard.resume", tr.at(j.resume[0]), tr.at(j.resume[1]), judge, id, seg, 1)
		if !j.park[0].IsZero() {
			tr.add("guard.export", tr.at(j.export[0]), tr.at(j.export[1]), judge, id, seg, 1)
			tr.add("sessionstore.park", tr.at(j.park[0]), tr.at(j.park[1]), judge, id, seg, 1)
		}
	}
}

// companionSegmented adds the state-path layers to a traced live run
// from a short segmented run on the same seed.
func companionSegmented(p params, training []trace.Session, rep *report, tr *tracer) error {
	spec := companionSpec(p.smoke)
	pre, err := prefill(spec, p.seed)
	if err != nil {
		return err
	}
	r, err := measure(spec, p, training, pre, true, min(p.seconds, 3))
	if err != nil {
		return fmt.Errorf("companion segmented run: %w", err)
	}
	s := r.stats()
	r.setStateLayers(rep, s)
	r.spans(tr)
	return nil
}
