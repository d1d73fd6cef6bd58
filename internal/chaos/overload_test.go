package chaos

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/chat"
	"repro/internal/leakcheck"
)

func TestBurstArrivals(t *testing.T) {
	if _, err := (BurstConfig{}).Arrivals(); err == nil {
		t.Error("zero N accepted")
	}
	cfg := BurstConfig{Seed: 7, N: 20, Base: 4 * time.Millisecond, BurstEvery: 3, BurstLen: 5}
	got, err := cfg.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("%d arrivals, want 20", len(got))
	}
	zeros := 0
	for _, d := range got {
		if d < 0 {
			t.Fatalf("negative gap %v", d)
		}
		if d == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatal("no back-to-back burst arrivals in schedule")
	}
	// Seeded: same config, same schedule.
	again, err := cfg.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("schedule not reproducible at %d: %v vs %v", i, got[i], again[i])
		}
	}
}

// TestOverloadSoak is the end-to-end overload drill, run under -race in
// CI: a 10x-capacity burst against a small admitted pool with one
// wedged worker. Submits must never block, the over-capacity tail must
// shed with typed errors, and a budgeted drain must report the
// unfinished sessions.
func TestOverloadSoak(t *testing.T) {
	snap := leakcheck.Snapshot()

	s, err := chat.NewScheduler(chat.SchedulerConfig{
		Workers:        2,
		SessionTimeout: 60 * time.Second,
		Admission:      &chat.AdmissionConfig{QueueCapacity: 4},
	})
	if err != nil {
		t.Fatal(err)
	}

	// One wedged session: its source delivers a few frames then blocks
	// inside Frame, ignoring cancellation — a hung capture driver.
	var stuck *StuckSource
	stuckReq, _ := soakRequest(t, "stuck", 900, func(inner chat.Source) (chat.Source, func()) {
		var err error
		stuck, err = NewStuckSource(inner, 5)
		if err != nil {
			t.Fatal(err)
		}
		return stuck, func() {}
	})
	stuckCh, err := s.Submit(context.Background(), stuckReq)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the worker wedge

	// Burst roughly 10x the queue capacity at the remaining worker. Each
	// session is deliberately slow (2 ms/frame) so the queue saturates.
	arrivals, err := BurstConfig{Seed: 901, N: 30, Base: 2 * time.Millisecond, BurstEvery: 3, BurstLen: 8}.Arrivals()
	if err != nil {
		t.Fatal(err)
	}
	type accepted struct {
		id string
		ch <-chan chat.SessionResult
	}
	var okd []accepted
	shed := 0
	for i, gap := range arrivals {
		time.Sleep(gap)
		req, _ := soakRequest(t, fmt.Sprintf("burst-%d", i), int64(1000+i), func(inner chat.Source) (chat.Source, func()) {
			slow, err := NewSlowSource(inner, 2*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}
			return slow, func() {}
		})
		req.Deadline = time.Now().Add(30 * time.Second)
		req.Priority = admission.Priority(i%3 - 1) // background/standard/interactive mix
		start := time.Now()
		ch, err := s.Submit(context.Background(), req)
		if d := time.Since(start); d > 200*time.Millisecond {
			// Typically well under 1 ms; the bound is generous for race-mode CI.
			t.Errorf("submit %d took %v; admission must never block", i, d)
		}
		if err != nil {
			if !errors.Is(err, admission.ErrShed) {
				t.Fatalf("submit %d refused with untyped error: %v", i, err)
			}
			shed++
			continue
		}
		okd = append(okd, accepted{id: req.ID, ch: ch})
	}
	if shed == 0 {
		t.Fatal("10x burst produced no shedding; queue bound is not enforced")
	}
	if len(okd) == 0 {
		t.Fatal("burst admitted nothing; shedding is over-aggressive")
	}
	t.Logf("burst: %d admitted, %d shed", len(okd), shed)

	// Graceful drain with a budget the stuck worker cannot meet: the
	// unfinished sessions come back to the caller.
	drainCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	drainStart := time.Now()
	unfinished, err := s.Drain(drainCtx)
	if d := time.Since(drainStart); d > 10*time.Second {
		t.Errorf("drain took %v, far past its 2s budget", d)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain err = %v, want deadline exceeded (stuck worker)", err)
	}
	found := false
	for _, id := range unfinished {
		if id == "stuck" {
			found = true
		}
	}
	if !found {
		t.Fatalf("unfinished = %v, missing the stuck session", unfinished)
	}

	// Every admitted session reports exactly once — completed, cancelled,
	// or shed by the drain with a typed error.
	for _, a := range okd {
		select {
		case res, ok := <-a.ch:
			if !ok {
				t.Fatalf("session %s channel closed without a result", a.id)
			}
			if res.Err != nil && !errors.Is(res.Err, admission.ErrShed) &&
				!errors.Is(res.Err, context.Canceled) && !errors.Is(res.Err, context.DeadlineExceeded) {
				t.Errorf("session %s: unexpected error %v", a.id, res.Err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("session %s never reported", a.id)
		}
	}

	// Release the wedge; the pool must wind down completely.
	stuck.Release()
	if res := <-stuckCh; res.Err == nil {
		t.Error("stuck session reported success despite drain cancellation")
	}
	s.Wait()
	leakcheck.Verify(t, snap, 5*time.Second)
}
