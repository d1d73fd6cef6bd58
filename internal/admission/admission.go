package admission

import (
	"errors"
	"fmt"
)

// ErrShed is the root of every load-shedding refusal. All shed causes
// wrap it, so callers gate on errors.Is(err, ErrShed) and log the
// specific cause from the message.
var ErrShed = errors.New("admission: request shed")

// Shed causes. Each wraps ErrShed; the admission_shed_total metric
// counts them under the matching cause label.
var (
	// ErrQueueFull rejects an arrival that found the queue at capacity
	// with nothing lower-priority to evict.
	ErrQueueFull = fmt.Errorf("%w: queue full", ErrShed)
	// ErrEvicted sheds a queued request displaced by a higher-priority
	// arrival while the queue was full.
	ErrEvicted = fmt.Errorf("%w: evicted by higher-priority arrival", ErrShed)
	// ErrDeadline sheds a request whose deadline expired before a worker
	// picked it up.
	ErrDeadline = fmt.Errorf("%w: deadline expired in queue", ErrShed)
	// ErrThrottled rejects an arrival over the token-bucket rate budget.
	ErrThrottled = fmt.Errorf("%w: arrival rate over budget", ErrShed)
	// ErrDraining sheds queued requests flushed by a drain that ran out
	// of budget.
	ErrDraining = fmt.Errorf("%w: service draining", ErrShed)
)

// Priority ranks requests for queue ordering and eviction. Higher values
// are served first and shed last; the zero value is Standard so plain
// requests need no configuration.
type Priority int

// Priority classes. Background work (re-verification sweeps, backfill)
// is the first to shed; Interactive work (a live call waiting on its
// verdict) is the last.
const (
	Background  Priority = -1
	Standard    Priority = 0
	Interactive Priority = 1
)

// String returns a stable label for the class.
func (p Priority) String() string {
	switch p {
	case Background:
		return "background"
	case Standard:
		return "standard"
	case Interactive:
		return "interactive"
	default:
		return fmt.Sprintf("Priority(%d)", int(p))
	}
}
