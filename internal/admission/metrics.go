package admission

import (
	"time"

	"repro/internal/obs"
)

// Observability instruments for the overload layer. The shed counter is
// the operator's first overload signal — a nonzero rate means callers
// are being refused, and the cause label says whether the fix is more
// workers (queue_full), tighter client deadlines (deadline), a rate
// budget bump (throttled), or an incident (draining).
var (
	metricAdmitted = obs.Default.Counter(
		"admission_admitted_total", "Requests accepted into the admission queue.")
	metricShed = obs.Default.CounterVec(
		"admission_shed_total", "Requests refused by the overload layer, by cause.", "cause")
	metricQueueDepth = obs.Default.Gauge(
		"admission_queue_depth", "Requests waiting in the admission queue.")
	metricQueueWait = obs.Default.Histogram(
		"admission_queue_wait_seconds", "Time a request waited in the admission queue before dispatch.",
		obs.LatencyBuckets())

	metricDrains = obs.Default.CounterVec(
		"admission_drain_total", "Graceful drains, by outcome (clean = everything finished in budget).", "result")
	metricDrainSeconds = obs.Default.Histogram(
		"admission_drain_seconds", "Wall-clock duration of one graceful drain.", obs.LatencyBuckets())
)

// RecordDrain records one graceful-drain outcome; clean means every
// in-flight and queued request finished inside the drain budget.
func RecordDrain(start time.Time, clean bool) {
	metricDrainSeconds.ObserveSince(start)
	if clean {
		metricDrains.With("clean").Inc()
		return
	}
	metricDrains.With("timeout").Inc()
}
