package guard

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/admission"
)

// TestBatchDetectContextCancellation cancels mid-batch: windows not yet
// started must report ctx.Err() instead of running.
func TestBatchDetectContextCancellation(t *testing.T) {
	det := trainDetector(t)
	b, err := det.Batch(1)
	if err != nil {
		t.Fatal(err)
	}
	var windows []Session
	for i := int64(0); i < 4; i++ {
		s, err := Simulate(SimOptions{Seed: 9400 + i, Peer: PeerGenuine})
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, Session{Transmitted: s.T, Received: s.R})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := b.Detect(ctx, windows, Guardrails{})
	if len(out) != 4 {
		t.Fatalf("%d verdicts, want 4", len(out))
	}
	cancelled := 0
	for _, v := range out {
		if errors.Is(v.Err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no window observed the cancellation")
	}
}

// TestBatchGuardrailsBreakerOpen pre-opens the breaker: every window
// fails fast with ErrBreakerOpen and no detection runs.
func TestBatchGuardrailsBreakerOpen(t *testing.T) {
	det := trainDetector(t)
	b, err := det.Batch(2)
	if err != nil {
		t.Fatal(err)
	}
	br, err := admission.NewBreaker(admission.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	br.Failure() // trip it
	s, err := Simulate(SimOptions{Seed: 9500, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	windows := []Session{
		{Transmitted: s.T, Received: s.R},
		{Transmitted: s.T, Received: s.R},
	}
	out := b.Detect(context.Background(), windows, Guardrails{Breaker: br})
	for i, v := range out {
		if !errors.Is(v.Err, admission.ErrBreakerOpen) {
			t.Fatalf("window %d err = %v, want ErrBreakerOpen", i, v.Err)
		}
	}
}

// TestBatchGuardrailsBudgetTimeout gives the stage an impossible budget:
// each window reports ErrStageTimeout and the breaker records failures.
func TestBatchGuardrailsBudgetTimeout(t *testing.T) {
	det := trainDetector(t)
	b, err := det.Batch(1)
	if err != nil {
		t.Fatal(err)
	}
	br, err := admission.NewBreaker(admission.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Simulate(SimOptions{Seed: 9600, Peer: PeerGenuine})
	if err != nil {
		t.Fatal(err)
	}
	windows := []Session{
		{Transmitted: s.T, Received: s.R},
		{Transmitted: s.T, Received: s.R},
	}
	out := b.Detect(context.Background(), windows, Guardrails{Budget: time.Nanosecond, Breaker: br})
	timeouts := 0
	for _, v := range out {
		if errors.Is(v.Err, ErrStageTimeout) {
			timeouts++
		} else if !errors.Is(v.Err, admission.ErrBreakerOpen) {
			t.Fatalf("err = %v, want ErrStageTimeout or ErrBreakerOpen", v.Err)
		}
	}
	if timeouts == 0 {
		t.Fatal("no window hit the stage budget")
	}
	if br.State() != admission.BreakerOpen {
		t.Fatalf("breaker state = %v, want open after repeated timeouts", br.State())
	}
}
