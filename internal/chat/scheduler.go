package chat

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/obs"
)

// ErrSchedulerClosed is returned by Submit (and Drain) once the
// scheduler has been closed or drained. It is distinct from the
// admission.ErrShed family: the service is shutting down, not shedding
// load.
var ErrSchedulerClosed = errors.New("chat: scheduler closed")

// AdmissionConfig puts a bounded, priority-ordered, deadline-aware
// intake in front of the worker pool. With it set, Submit never blocks:
// an arrival either enters the queue or is refused immediately with a
// typed admission.ErrShed error, and queued requests whose deadline
// expires before a worker frees up are shed through their result
// channel instead of running late.
type AdmissionConfig struct {
	// QueueCapacity bounds how many sessions may wait for a worker;
	// required >= 1.
	QueueCapacity int
	// RatePerSec, when positive, token-bucket-limits arrivals; requests
	// over the budget are refused with admission.ErrThrottled.
	RatePerSec float64
	// Burst is the token-bucket depth; 0 means QueueCapacity.
	Burst int
}

// Validate checks the admission parameters.
func (c AdmissionConfig) Validate() error {
	if c.QueueCapacity < 1 {
		return fmt.Errorf("chat: admission queue capacity %d must be >= 1", c.QueueCapacity)
	}
	if c.RatePerSec < 0 {
		return fmt.Errorf("chat: negative admission rate %v", c.RatePerSec)
	}
	if c.Burst < 0 {
		return fmt.Errorf("chat: negative admission burst %d", c.Burst)
	}
	return nil
}

// SchedulerConfig sizes the multi-session scheduler.
type SchedulerConfig struct {
	// Workers bounds how many sessions run simultaneously; 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Judge, when non-nil, post-processes each completed trace on the
	// worker goroutine — typically classifying it with a trained detector
	// — and its result travels with the SessionResult. The function must
	// be safe for concurrent use across workers.
	Judge func(id string, tr *Trace) (any, error)
	// SessionTimeout bounds each session's wall-clock run, including the
	// Judge call: a stalled frame source cannot pin a worker forever.
	// Zero means no deadline.
	SessionTimeout time.Duration
	// Admission, when non-nil, enables overload-robust intake: bounded
	// queueing, priority classes, per-request deadlines and token-bucket
	// rate limiting. Nil keeps the legacy behaviour (Submit blocks while
	// every worker is busy).
	Admission *AdmissionConfig

	// States, when non-nil, makes sessions resumable: a submitted request
	// whose ID has parked state rehydrates it before running, and a
	// cancelled session's remains are parked back through Salvage. See
	// StateStore.
	States StateStore
	// Salvage distills a cancelled session into parkable state. partial is
	// the truncated trace (nil when the session was cancelled before its
	// first sample) and resumed is whatever Rehydrate returned for this run
	// (nil on a fresh start) — returning resumed unchanged preserves parked
	// state a cancelled-at-birth session would otherwise lose. Returning a
	// nil state (or an error) declines the salvage. Ignored without States;
	// with States but no Salvage, cancelled sessions park nothing.
	Salvage func(id string, partial *Trace, resumed any) (any, error)
	// JudgeResumed, when non-nil, replaces Judge for sessions that
	// rehydrated parked state, receiving that state so the verdict can
	// account for the earlier partial run. Nil falls back to Judge.
	JudgeResumed func(id string, tr *Trace, resumed any) (any, error)
}

// Validate checks the scheduler parameters.
func (c SchedulerConfig) Validate() error {
	if c.Workers < 0 {
		return fmt.Errorf("chat: negative workers %d", c.Workers)
	}
	if c.SessionTimeout < 0 {
		return fmt.Errorf("chat: negative session timeout %v", c.SessionTimeout)
	}
	if c.Admission != nil {
		if err := c.Admission.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// SessionRequest is one session the scheduler should run. Verifier and
// Peer are owned by the scheduler from Submit until the result is
// delivered; they are stateful and must not be shared between requests.
type SessionRequest struct {
	// ID names the session in its result (a call id, user id, ...).
	ID       string
	Config   SessionConfig
	Verifier *Verifier
	Peer     Source

	// Priority ranks the request for admission-queue ordering and
	// eviction; the zero value is admission.Standard. Ignored without
	// SchedulerConfig.Admission.
	Priority admission.Priority
	// Deadline, when nonzero, is the latest useful verdict time: a
	// request still queued past it is shed with admission.ErrDeadline,
	// and a running session is cancelled at it (the verdict would arrive
	// too late to matter). Honoured on both the admission and legacy
	// paths.
	Deadline time.Time
}

// SessionResult is the outcome of one scheduled session, delivered on the
// session's own channel.
type SessionResult struct {
	ID    string
	Trace *Trace
	// Verdict is the Judge output, nil when no judge is configured or the
	// session failed.
	Verdict any
	// Err reports a failed, cancelled or shed session. Shed sessions
	// satisfy errors.Is(err, admission.ErrShed).
	Err error

	// Resumed reports that the session started from parked state
	// (SchedulerConfig.States had this ID).
	Resumed bool
	// Salvaged reports that this cancelled session's remains were parked
	// for a later resume; Err still carries the cancellation.
	Salvaged bool
	// RehydrateErr reports parked state that existed but could not be
	// used (corrupt state); the session ran from scratch. It is set
	// alongside a normal result, not instead of one.
	RehydrateErr error
}

// Scheduler drives N concurrent chat sessions over a bounded worker pool
// from one verifier process: submit sessions as calls arrive, receive
// each verdict on the session's own channel, and cancel the lot through
// the submit context. With SchedulerConfig.Admission set the intake is
// overload-robust: Submit never blocks, over-capacity arrivals shed with
// typed errors, and Drain stops intake gracefully within a budget.
// Create with NewScheduler; Close drains the pool.
type Scheduler struct {
	cfg     SchedulerConfig
	jobs    chan schedJob
	wg      sync.WaitGroup
	dwg     sync.WaitGroup // dispatcher only
	workers int

	q      *admission.Queue[schedJob]
	bucket *admission.TokenBucket
	// abort, when closed, makes the dispatcher shed the job it is
	// holding instead of waiting for a worker.
	abort     chan struct{}
	abortOnce sync.Once
	// dmu guards drainShed: IDs the dispatcher shed during an aborted
	// drain, so Drain can report them as unfinished.
	dmu       sync.Mutex
	drainShed []string

	// exited fires the worker-gauge decrement exactly once when the pool
	// has fully stopped, whichever of Close/Drain/Wait observes it.
	exited sync.Once

	// killed marks an unplanned-death teardown (Kill): cancelled sessions
	// must NOT park salvage, because a genuinely crashed process parks
	// nothing — recovery reads its last checkpoint, and salvage written
	// after the "crash" would be state the checkpoint never saw.
	killed atomic.Bool

	// imu guards the in-flight session table used by Drain to cancel and
	// report sessions that outlive the drain budget.
	imu      sync.Mutex
	nextKey  uint64
	inflight map[uint64]*flight

	// mu guards closed and fences Submit's channel send against Close:
	// legacy-path submitters hold the read side across the send, so the
	// jobs channel can only be closed while no send is in flight.
	mu     sync.RWMutex
	closed bool
}

// flight is one running session: its ID plus the cancel lever Drain
// pulls when the budget expires.
type flight struct {
	id     string
	cancel context.CancelFunc
}

// schedJob pairs a request with its result channel and submit context.
type schedJob struct {
	ctx context.Context
	req SessionRequest
	out chan SessionResult
}

// NewScheduler starts the worker pool (and, with Admission configured,
// the admission queue and its dispatcher).
//
//lint:ignore vclint/ctxpropagate constructor: the pool's lifetime belongs to the Scheduler and ends via Close/Drain (WaitGroup-joined); a construction-time context would suggest a cancellation scope that does not exist
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{
		cfg:      cfg,
		jobs:     make(chan schedJob),
		workers:  workers,
		abort:    make(chan struct{}),
		inflight: map[uint64]*flight{},
	}
	if cfg.Admission != nil {
		q, err := admission.NewQueue(admission.QueueConfig[schedJob]{
			Capacity: cfg.Admission.QueueCapacity,
			OnShed:   s.deliverShed,
		})
		if err != nil {
			return nil, err
		}
		s.q = q
		if cfg.Admission.RatePerSec > 0 {
			burst := cfg.Admission.Burst
			if burst == 0 {
				burst = cfg.Admission.QueueCapacity
			}
			b, err := admission.NewTokenBucket(cfg.Admission.RatePerSec, float64(burst))
			if err != nil {
				return nil, err
			}
			s.bucket = b
		}
		s.dwg.Add(1)
		go s.dispatch()
	}
	metricWorkers.Add(int64(workers))
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for job := range s.jobs {
				metricQueueDepth.Add(-1)
				metricWorkersBusy.Add(1)
				res := s.runOne(job)
				metricWorkersBusy.Add(-1)
				// The one-slot buffer makes this send non-blocking; the
				// fallback arm is belt-and-braces so a future unbuffered
				// refactor cannot wedge a worker on a caller that
				// abandoned its channel (see
				// TestSchedulerCancelUndrainedChannels).
				select {
				case job.out <- res:
				default:
					select {
					case job.out <- res:
					case <-job.ctx.Done():
					}
				}
				close(job.out)
			}
		}()
	}
	return s, nil
}

// dispatch feeds the worker pool from the admission queue, shedding jobs
// whose deadline expires (or whose submit context dies) while they wait
// for a worker. It closes the jobs channel when the queue is done, which
// is what finally stops the workers.
func (s *Scheduler) dispatch() {
	defer s.dwg.Done()
	defer close(s.jobs)
	for {
		job, ok := s.q.Pop(context.Background())
		if !ok {
			return
		}
		var expiry <-chan time.Time
		if !job.req.Deadline.IsZero() {
			//lint:ignore vclint/nodeterm real-time deadline enforcement is wall-clock by design; deterministic drivers pass zero deadlines, which skip this timer
			t := time.NewTimer(time.Until(job.req.Deadline))
			expiry = t.C
			select {
			case s.jobs <- job:
			case <-expiry:
				s.deliverShed(job, admission.ErrDeadline)
			case <-job.ctx.Done():
				s.deliverShed(job, job.ctx.Err())
			case <-s.abort:
				s.deliverShed(job, admission.ErrDraining)
			}
			t.Stop()
			continue
		}
		select {
		case s.jobs <- job:
		case <-job.ctx.Done():
			s.deliverShed(job, job.ctx.Err())
		case <-s.abort:
			s.dmu.Lock()
			s.drainShed = append(s.drainShed, job.req.ID)
			s.dmu.Unlock()
			s.deliverShed(job, admission.ErrDraining)
		}
	}
}

// deliverShed reports a job that will never run on its result channel.
// The channel's one-slot buffer makes the send non-blocking: a shed job
// was never handed to a worker, so nothing else writes to it.
func (s *Scheduler) deliverShed(job schedJob, cause error) {
	metricQueueDepth.Add(-1)
	metricShedSessions.Inc()
	job.out <- SessionResult{ID: job.req.ID, Err: fmt.Errorf("chat: session %q: %w", job.req.ID, cause)}
	close(job.out)
}

// runOne executes a single session, honouring the submit context, the
// per-request deadline, and the configured per-session timeout. A
// panicking frame source or judge is contained to this session's error:
// the worker — and the other sessions it will serve — survive.
func (s *Scheduler) runOne(job schedJob) (res SessionResult) {
	res = SessionResult{ID: job.req.ID}
	start := time.Now() //lint:ignore vclint/nodeterm feeds the session latency histogram and spans only; never the result
	panicked := false
	defer func() {
		metricSessionSeconds.ObserveSince(start)
		switch {
		case panicked:
			sessionsPanic.Inc()
			obs.Default.RecordSpan("chat.session", start, "id="+job.req.ID+" result=panic")
		case res.Err != nil:
			sessionsErr.Inc()
			obs.Default.RecordSpan("chat.session", start, "id="+job.req.ID+" result=error")
		default:
			sessionsOK.Inc()
			obs.Default.RecordSpan("chat.session", start, "id="+job.req.ID+" result=ok")
		}
	}()
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			res = SessionResult{
				ID:  job.req.ID,
				Err: fmt.Errorf("chat: session %q panicked: %v", job.req.ID, r),
			}
		}
	}()
	ctx := job.ctx
	if s.cfg.SessionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SessionTimeout)
		defer cancel()
	}
	if !job.req.Deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, job.req.Deadline)
		defer cancel()
	}
	// Register with the drain table so an over-budget Drain can cancel
	// this session and report its ID as unfinished.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	key := s.track(job.req.ID, cancel)
	defer s.untrack(key)
	// Rehydrate parked state before the first frame. A decode failure is
	// reported but not fatal: the session still runs, from scratch.
	var resumed any
	if s.cfg.States != nil {
		st, ok, rerr := s.cfg.States.Rehydrate(job.req.ID)
		switch {
		case rerr != nil:
			metricRehydrateErrors.Inc()
			res.RehydrateErr = fmt.Errorf("chat: session %q rehydrate: %w", job.req.ID, rerr)
		case ok:
			resumed = st
			res.Resumed = true
			metricSessionsResumed.Inc()
		}
	}
	if err := ctx.Err(); err != nil {
		res.Err = err
		s.salvage(&res, job.req, nil, resumed)
		return res
	}
	tr, err := RunSessionContext(ctx, job.req.Config, job.req.Verifier, job.req.Peer)
	if err != nil {
		res.Err = fmt.Errorf("chat: session %q: %w", job.req.ID, err)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// tr is the partial trace (nil when no sample completed).
			s.salvage(&res, job.req, tr, resumed)
		}
		return res
	}
	res.Trace = tr
	switch {
	case res.Resumed && s.cfg.JudgeResumed != nil:
		v, err := s.cfg.JudgeResumed(job.req.ID, tr, resumed)
		if err != nil {
			res.Err = fmt.Errorf("chat: session %q judge: %w", job.req.ID, err)
			return res
		}
		res.Verdict = v
	case s.cfg.Judge != nil:
		v, err := s.cfg.Judge(job.req.ID, tr)
		if err != nil {
			res.Err = fmt.Errorf("chat: session %q judge: %w", job.req.ID, err)
			return res
		}
		res.Verdict = v
	}
	// No Discard on success: Rehydrate already removed the parked entry
	// (corrupt entries included), and a judge may have parked updated
	// state for the session's next leg — the scheduler must not drop it.
	return res
}

// salvage parks a cancelled session's remains: Salvage distills the
// partial trace plus any rehydrated state, Park files it under the
// request's priority. A declined salvage (nil state or Salvage error)
// parks nothing; a Park refusal (store pressure) joins the result error
// so the loss is never silent.
func (s *Scheduler) salvage(res *SessionResult, req SessionRequest, partial *Trace, resumed any) {
	if s.cfg.States == nil || s.cfg.Salvage == nil {
		return
	}
	if s.killed.Load() {
		return // a killed instance parks nothing; see Kill
	}
	if partial == nil && resumed == nil {
		return // nothing observed, nothing to preserve
	}
	st, err := s.cfg.Salvage(req.ID, partial, resumed)
	if err != nil {
		res.Err = errors.Join(res.Err, fmt.Errorf("chat: session %q salvage: %w", req.ID, err))
		return
	}
	if st == nil {
		return
	}
	if err := s.cfg.States.Park(req.ID, req.Priority, st); err != nil {
		res.Err = errors.Join(res.Err, fmt.Errorf("chat: session %q park: %w", req.ID, err))
		return
	}
	res.Salvaged = true
	metricSessionsSalvaged.Inc()
}

// track registers a running session's cancel lever.
func (s *Scheduler) track(id string, cancel context.CancelFunc) uint64 {
	s.imu.Lock()
	defer s.imu.Unlock()
	s.nextKey++
	s.inflight[s.nextKey] = &flight{id: id, cancel: cancel}
	return s.nextKey
}

// untrack removes a finished session.
func (s *Scheduler) untrack(key uint64) {
	s.imu.Lock()
	delete(s.inflight, key)
	s.imu.Unlock()
}

// Submit queues one session and returns its verdict channel. The channel
// is buffered and receives exactly one SessionResult before closing, so
// the caller may consume it whenever convenient. Cancelling ctx abandons
// the session: queued sessions report ctx.Err() without running, and an
// in-flight session stops at the next frame.
//
// Without SchedulerConfig.Admission, Submit blocks only while every
// worker is busy. With it, Submit never blocks: over-rate arrivals
// return admission.ErrThrottled and a full queue with nothing cheaper to
// evict returns admission.ErrQueueFull, both immediately and both
// satisfying errors.Is(err, admission.ErrShed). Submit after Close or
// Drain returns ErrSchedulerClosed.
func (s *Scheduler) Submit(ctx context.Context, req SessionRequest) (<-chan SessionResult, error) {
	if req.Verifier == nil || req.Peer == nil {
		return nil, fmt.Errorf("chat: session %q: nil verifier or peer", req.ID)
	}
	if s.q != nil {
		return s.submitAdmission(ctx, req)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, fmt.Errorf("chat: session %q: %w", req.ID, ErrSchedulerClosed)
	}
	out := make(chan SessionResult, 1)
	job := schedJob{ctx: ctx, req: req, out: out}
	metricQueueDepth.Add(1)
	var expiry <-chan time.Time
	if !req.Deadline.IsZero() {
		//lint:ignore vclint/nodeterm real-time deadline enforcement is wall-clock by design; deterministic drivers pass zero deadlines, which skip this timer
		t := time.NewTimer(time.Until(req.Deadline))
		defer t.Stop()
		expiry = t.C
	}
	//lint:ignore vclint/locksafe the read lock is held across the enqueue on purpose: Close/Drain take the write lock and must not transition mid-submit; they block for at most one enqueue
	select {
	case s.jobs <- job:
		return out, nil
	case <-expiry:
		metricQueueDepth.Add(-1)
		metricShedSessions.Inc()
		return nil, fmt.Errorf("chat: session %q: %w", req.ID, admission.ErrDeadline)
	case <-ctx.Done():
		metricQueueDepth.Add(-1)
		return nil, ctx.Err()
	}
}

// submitAdmission is the non-blocking intake path.
func (s *Scheduler) submitAdmission(ctx context.Context, req SessionRequest) (<-chan SessionResult, error) {
	s.mu.RLock()
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("chat: session %q: %w", req.ID, ErrSchedulerClosed)
	}
	if s.bucket != nil && !s.bucket.Allow() {
		metricShedSessions.Inc()
		return nil, fmt.Errorf("chat: session %q: %w", req.ID, admission.ErrThrottled)
	}
	out := make(chan SessionResult, 1)
	job := schedJob{ctx: ctx, req: req, out: out}
	if err := s.q.Push(job, req.Priority, req.Deadline); err != nil {
		if errors.Is(err, admission.ErrDraining) {
			return nil, fmt.Errorf("chat: session %q: %w", req.ID, ErrSchedulerClosed)
		}
		metricShedSessions.Inc()
		return nil, fmt.Errorf("chat: session %q: %w", req.ID, err)
	}
	metricQueueDepth.Add(1)
	return out, nil
}

// RunAll submits every request and gathers the results in request order,
// returning once all sessions have finished or ctx is cancelled.
// Individual failures land in their SessionResult.Err; RunAll itself only
// errors when a submission is rejected.
func (s *Scheduler) RunAll(ctx context.Context, reqs []SessionRequest) ([]SessionResult, error) {
	chans := make([]<-chan SessionResult, len(reqs))
	results := make([]SessionResult, len(reqs))
	submitted := 0
	var submitErr error
	for i, req := range reqs {
		ch, err := s.Submit(ctx, req)
		if err != nil {
			submitErr = err
			break
		}
		chans[i] = ch
		submitted++
	}
	for i := 0; i < submitted; i++ {
		results[i] = <-chans[i]
	}
	if submitErr != nil {
		return results[:submitted], submitErr
	}
	return results, nil
}

// beginClose marks the scheduler closed and stops the intake, reporting
// whether this call was the one that closed it. Queued sessions still
// run: the admission queue keeps draining into the workers, and on the
// legacy path the jobs channel close only stops new sends.
func (s *Scheduler) beginClose() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.closed = true
	if s.q != nil {
		s.q.Close()
	} else {
		close(s.jobs)
	}
	return true
}

// finish decrements the worker gauge exactly once, after the pool has
// fully stopped.
func (s *Scheduler) finish() {
	s.exited.Do(func() { metricWorkers.Add(-int64(s.workers)) })
}

// Close stops accepting sessions and waits for queued and in-flight ones
// to drain completely. It is idempotent and safe to call concurrently
// with Submit; Submit after Close returns ErrSchedulerClosed. For a
// bounded shutdown use Drain.
func (s *Scheduler) Close() {
	if !s.beginClose() {
		return
	}
	s.dwg.Wait()
	s.wg.Wait()
	s.finish()
}

// Drain is the graceful-shutdown path: it stops intake immediately and
// gives queued plus in-flight sessions until ctx expires to finish. On a
// clean drain it returns (nil, nil). Past the budget it sheds every
// still-queued session with admission.ErrDraining on its result channel,
// cancels every in-flight session, and returns their IDs. With
// SchedulerConfig.States and Salvage set, each cancelled session's
// partial state is parked, so a restart resumes it (vcguard serve
// -state-dir).
// It does not wait for truly stuck workers — call Wait after releasing
// whatever wedged them. Draining an already-closed scheduler returns
// ErrSchedulerClosed.
func (s *Scheduler) Drain(ctx context.Context) ([]string, error) {
	if !s.beginClose() {
		return nil, ErrSchedulerClosed
	}
	start := time.Now() //lint:ignore vclint/nodeterm feeds the drain duration metric only; the returned session IDs are clock-free
	done := make(chan struct{})
	go func() {
		s.dwg.Wait()
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.finish()
		admission.RecordDrain(start, true)
		return nil, nil
	case <-ctx.Done():
	}

	// Budget expired: flush the queue, then cancel what is running.
	var unfinished []string
	if s.q != nil {
		s.abortOnce.Do(func() { close(s.abort) })
		for _, job := range s.q.Abort() {
			unfinished = append(unfinished, job.req.ID)
			s.deliverShed(job, admission.ErrDraining)
		}
		// The dispatcher exits once its held job (if any) is shed via the
		// abort channel and the aborted queue reports empty; it records
		// that job's ID in drainShed for the report below.
		s.dwg.Wait()
		s.dmu.Lock()
		unfinished = append(unfinished, s.drainShed...)
		s.dmu.Unlock()
	}
	s.imu.Lock()
	for _, f := range s.inflight {
		unfinished = append(unfinished, f.id)
		f.cancel()
	}
	s.imu.Unlock()
	admission.RecordDrain(start, false)
	return unfinished, ctx.Err()
}

// Kill simulates unplanned instance death in-process: intake stops,
// every queued session is shed, every in-flight session is cancelled
// immediately, and — unlike Drain — nothing is salvaged into the state
// store, because a crashed process parks nothing. Recovery must come
// from the instance's last durable checkpoint, exactly as it would
// after a real SIGKILL; that is the contract cluster failover tests
// against. Cancelled and shed sessions still deliver error results on
// their channels (the in-process stand-in for connections dying), and
// the returned IDs are everything Kill cut down. Killing an
// already-closed scheduler returns nil. Call Wait to join the pool.
func (s *Scheduler) Kill() []string {
	s.killed.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids, _ := s.Drain(ctx)
	return ids
}

// Workers returns the size of the worker pool — the scheduler's service
// capacity, fixed at construction.
func (s *Scheduler) Workers() int { return s.workers }

// Wait blocks until every worker goroutine has exited. After a Drain
// that timed out on a stuck worker, release the stuck source and call
// Wait before asserting goroutine hygiene.
func (s *Scheduler) Wait() {
	s.dwg.Wait()
	s.wg.Wait()
	s.finish()
}
