// Package obs is the observability substrate of the pipeline: a
// dependency-free metrics registry (atomic counters, gauges, lock-free
// histogram buckets) plus a ring-buffer span recorder for coarse stage
// tracing. Every hot path of the defense — guard.Detect/DetectSamples/
// Train, the stream detector, the chat scheduler, and the preprocessing
// chain — registers its instruments against the Default registry at
// package init, so importing those packages is all it takes for the
// metrics to exist; OBSERVABILITY.md catalogs them.
//
// Design constraints, in order:
//
//  1. Zero dependencies. The repo is stdlib-only and the instruments sit
//     on paths budgeted at ~0.1 ms per 15 s window, so everything here
//     is sync/atomic: counters and gauges are single atomic.Int64 cells,
//     histogram buckets are a fixed []atomic.Int64 found by linear scan
//     (the bucket lists are short), and the float sum is a CAS loop.
//     Only the span ring takes a mutex — spans are recorded per window
//     or per session, not per sample.
//  2. Deterministic snapshots. Snapshot sorts every family by name and
//     every vec child by label, so two snapshots of a quiet registry are
//     byte-identical — the golden-format test and the /metrics diffing
//     workflow in OBSERVABILITY.md rely on that.
//  3. Idempotent registration. Getting a metric that already exists
//     returns the existing instrument (names are the identity), so tests
//     and multiply-imported packages cannot double-register.
//
// Exposition is layered on top: Snapshot/WriteTo give a text + JSON dump
// API, and Handler (http.go) serves /metrics, /debug/vars and
// net/http/pprof for live processes (cmd/vcguard -metrics).
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Name returns the metric name.
func (c *Counter) Name() string { return c.name }

// Gauge is an atomic instantaneous value (queue depth, busy workers).
type Gauge struct {
	name string
	help string
	v    atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Name returns the metric name.
func (g *Gauge) Name() string { return g.name }

// Histogram counts observations into fixed buckets. Observe is lock-free:
// one atomic add on the bucket, one on the count, and a CAS loop on the
// float64 sum.
type Histogram struct {
	name   string
	help   string
	bounds []float64 // upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start, in seconds.
func (h *Histogram) ObserveSince(start time.Time) {
	h.Observe(time.Since(start).Seconds())
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Name returns the metric name.
func (h *Histogram) Name() string { return h.name }

// LatencyBuckets spans 1 µs to 2.5 s: the pipeline budget is ~0.1 ms per
// window and a whole chat session runs tens of seconds, so the grid
// resolves both regimes.
func LatencyBuckets() []float64 {
	return []float64{
		1e-6, 2.5e-6, 5e-6,
		1e-5, 2.5e-5, 5e-5,
		1e-4, 2.5e-4, 5e-4,
		1e-3, 2.5e-3, 5e-3,
		1e-2, 2.5e-2, 5e-2,
		1e-1, 2.5e-1, 5e-1,
		1, 2.5,
	}
}

// RatioBuckets covers [0, 1] quantities (window quality, gap ratios) in
// tenths.
func RatioBuckets() []float64 {
	return []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}
}

// CounterVec is a family of counters keyed by one label value (a
// ReasonCode, a pipeline stage, a verdict). Children are created on first
// use and live forever — label values must be low-cardinality.
type CounterVec struct {
	name  string
	help  string
	label string

	mu       sync.RWMutex
	children map[string]*Counter
}

// With returns the child counter for the given label value.
func (v *CounterVec) With(value string) *Counter {
	v.mu.RLock()
	c := v.children[value]
	v.mu.RUnlock()
	if c != nil {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c = v.children[value]; c != nil {
		return c
	}
	c = &Counter{name: fmt.Sprintf("%s{%s=%q}", v.name, v.label, value), help: v.help}
	v.children[value] = c
	return c
}

// Name returns the family name.
func (v *CounterVec) Name() string { return v.name }

// HistogramVec is a family of histograms keyed by one label value.
type HistogramVec struct {
	name   string
	help   string
	label  string
	bounds []float64

	mu       sync.RWMutex
	children map[string]*Histogram
}

// With returns the child histogram for the given label value.
func (v *HistogramVec) With(value string) *Histogram {
	v.mu.RLock()
	h := v.children[value]
	v.mu.RUnlock()
	if h != nil {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h = v.children[value]; h != nil {
		return h
	}
	h = &Histogram{
		name:   fmt.Sprintf("%s{%s=%q}", v.name, v.label, value),
		help:   v.help,
		bounds: v.bounds,
		counts: make([]atomic.Int64, len(v.bounds)+1),
	}
	v.children[value] = h
	return h
}

// Name returns the family name.
func (v *HistogramVec) Name() string { return v.name }

// Span is one recorded trace span: a named stretch of wall-clock work
// (a Detect call, a scheduled session, a training run) with an optional
// note carrying the outcome.
type Span struct {
	// Name identifies the operation (e.g. "guard.detect").
	Name string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// Duration is the span length.
	Duration time.Duration `json:"duration"`
	// Note carries the outcome ("verdict=attacker", "reason=gap ratio").
	Note string `json:"note,omitempty"`
}

// spanRing is a fixed-capacity overwrite-oldest span store.
type spanRing struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	total int64
}

func (r *spanRing) record(s Span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.buf) == 0 {
		return
	}
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	r.total++
}

// snapshot returns the retained spans oldest-first plus the all-time count.
func (r *spanRing) snapshot() ([]Span, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := int64(len(r.buf))
	if r.total < n {
		n = r.total
	}
	out := make([]Span, 0, n)
	start := r.next - int(n)
	if start < 0 {
		start += len(r.buf)
	}
	for i := int64(0); i < n; i++ {
		out = append(out, r.buf[(start+int(i))%len(r.buf)])
	}
	return out, r.total
}

// ActiveSpan is a span being timed; call End exactly once.
type ActiveSpan struct {
	reg   *Registry
	name  string
	start time.Time
}

// End records the span with an optional outcome note.
func (s ActiveSpan) End(note string) {
	if s.reg == nil {
		return
	}
	s.reg.spans.record(Span{
		Name:     s.name,
		Start:    s.start,
		Duration: time.Since(s.start),
		Note:     note,
	})
}

// SpanCapacity is the number of spans the ring retains.
const SpanCapacity = 256

// Registry holds a namespace of metric families and a span ring. The zero
// value is not usable; use NewRegistry or the package-level Default.
type Registry struct {
	mu          sync.RWMutex
	counters    map[string]*Counter
	gauges      map[string]*Gauge
	histograms  map[string]*Histogram
	counterVecs map[string]*CounterVec
	histVecs    map[string]*HistogramVec
	spans       *spanRing
}

// NewRegistry returns an empty registry with a SpanCapacity span ring.
func NewRegistry() *Registry {
	return &Registry{
		counters:    map[string]*Counter{},
		gauges:      map[string]*Gauge{},
		histograms:  map[string]*Histogram{},
		counterVecs: map[string]*CounterVec{},
		histVecs:    map[string]*HistogramVec{},
		spans:       &spanRing{buf: make([]Span, SpanCapacity)},
	}
}

// Default is the process-wide registry every package-level instrument
// registers against.
var Default = NewRegistry()

// Counter returns (creating if absent) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	return c
}

// Gauge returns (creating if absent) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	return g
}

// Histogram returns (creating if absent) the named histogram. bounds are
// the bucket upper limits in increasing order; an implicit +Inf bucket is
// appended.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	r.histograms[name] = h
	return h
}

// CounterVec returns (creating if absent) the named counter family with
// the given label key.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.counterVecs[name]; ok {
		return v
	}
	v := &CounterVec{name: name, help: help, label: label, children: map[string]*Counter{}}
	r.counterVecs[name] = v
	return v
}

// HistogramVec returns (creating if absent) the named histogram family.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok := r.histVecs[name]; ok {
		return v
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	v := &HistogramVec{name: name, help: help, label: label, bounds: b, children: map[string]*Histogram{}}
	r.histVecs[name] = v
	return v
}

// StartSpan begins timing a named span against this registry's ring.
func (r *Registry) StartSpan(name string) ActiveSpan {
	return ActiveSpan{reg: r, name: name, start: time.Now()}
}

// Spans returns the retained spans oldest-first and the all-time total
// (total − len(spans) were overwritten).
func (r *Registry) Spans() ([]Span, int64) {
	return r.spans.snapshot()
}

// Names returns every registered family name, sorted. Vec families count
// once under their family name regardless of how many children exist.
// The metric-catalog test uses this to hold OBSERVABILITY.md and the live
// registry to the same inventory.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0,
		len(r.counters)+len(r.gauges)+len(r.histograms)+len(r.counterVecs)+len(r.histVecs))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.gauges {
		names = append(names, n)
	}
	for n := range r.histograms {
		names = append(names, n)
	}
	for n := range r.counterVecs {
		names = append(names, n)
	}
	for n := range r.histVecs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
