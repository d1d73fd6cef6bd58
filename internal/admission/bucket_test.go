package admission

import (
	"testing"
	"time"
)

// testClock is a manually-advanced clock for bucket tests.
type testClock struct{ t time.Time }

func (c *testClock) now() time.Time          { return c.t }
func (c *testClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestTokenBucket(t *testing.T) {
	if _, err := NewTokenBucket(0, 1); err == nil {
		t.Error("zero rate accepted")
	}
	clock := &testClock{t: time.Unix(0, 0)}
	b, err := newTokenBucket(2, 2, clock.now) // 2/sec, burst 2
	if err != nil {
		t.Fatal(err)
	}
	if !b.Allow() || !b.Allow() {
		t.Fatal("full bucket refused its burst")
	}
	if b.Allow() {
		t.Fatal("empty bucket admitted a request")
	}
	clock.advance(500 * time.Millisecond) // refills one token
	if !b.Allow() {
		t.Fatal("refilled token refused")
	}
	if b.Allow() {
		t.Fatal("over-budget arrival admitted")
	}
	clock.advance(time.Hour) // refill caps at burst
	if !b.Allow() || !b.Allow() {
		t.Fatal("bucket did not refill to burst")
	}
	if b.Allow() {
		t.Fatal("burst cap not enforced")
	}
}
