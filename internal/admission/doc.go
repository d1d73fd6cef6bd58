// Package admission is the overload-robustness layer in front of the
// verification pipeline: a bounded priority queue with deadline-aware
// load shedding and a token-bucket arrival limiter. The design target,
// inherited from the paper's real-time constraint, is that a verdict
// which arrives after the attacker has already spoken is worthless — so
// under overload the service must *shed predictably* (typed ErrShed
// within the caller's latency budget) rather than queue without bound
// and stall every session at once.
//
// The layer deliberately fails closed at the intake: a shed request is
// an explicit, typed refusal the caller can retry elsewhere.
//
// Everything here is stdlib-only and instrumented against
// internal/obs; OBSERVABILITY.md catalogs the shed/queue/drain
// families.
package admission
