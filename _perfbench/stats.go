package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile: a
// p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// quantile returns the nearest-rank p-quantile of sorted (ascending).
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

// tailCount is how many of n samples lie beyond the nearest-rank
// p-quantile.
func tailCount(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// supported reports whether n samples carry a p-quantile: at least
// minTail samples beyond it.
func supported(n int, p float64) bool { return tailCount(n, p) >= minTail }

// summary is a latency distribution reduced to what the benchmark
// reports.
type summary struct {
	n        int
	p50, p99 float64
}

// summarize sorts xs in place and reduces it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	return summary{n: len(xs), p50: quantile(xs, 0.5), p99: quantile(xs, 0.99)}
}

// median is the nearest-rank median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quantile(xs, 0.5)
}

// Operation outcomes. An operation is an expected hop (live workloads)
// or a submitted segment (segmented calls); anything but outcomeOK
// counts as failed.
const (
	outcomeOK = iota
	outcomeShed
	outcomeError
	outcomeTimedOut
	outcomeNoVerdict
	outcomeKinds
)

var outcomeNames = [outcomeKinds]string{"ok", "shed", "error", "timed_out", "no_verdict"}

// ops tallies operation outcomes.
type ops struct {
	n [outcomeKinds]int
}

// add records count operations with one outcome.
func (o *ops) add(outcome, count int) { o.n[outcome] += count }

// attempted counts every operation.
func (o ops) attempted() int {
	t := 0
	for _, c := range o.n {
		t += c
	}
	return t
}

// failed counts every operation that did not end in a verdict or a
// typed reason in time.
func (o ops) failed() int { return o.attempted() - o.n[outcomeOK] }

// answeredRatio is the share of attempted operations that ended in a
// verdict or typed reason in time: 1 - failed/attempted, so that it is
// never 0 on a healthy run. Zero attempts answer nothing.
func (o ops) answeredRatio() float64 {
	a := o.attempted()
	if a == 0 {
		return 0
	}
	return float64(a-o.failed()) / float64(a)
}

// expire turns late answered operations into timed-out ones: a verdict
// past its deadline counts as missing it.
func (o *ops) expire(late int) {
	o.n[outcomeOK] -= late
	o.n[outcomeTimedOut] += late
}
