package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// hop (or one segment) share sess and hop; calls counts the calls a
// span covers when it times a block of them.
type span struct {
	name       string
	start, end int64 // ns since the tracer started
	parent     int32 // index of the parent span, -1 for a root
	sess, hop  int32
	calls      int32
}

func (s span) dur() int64 { return s.end - s.start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// at converts a wall time to the tracer clock.
func (t *tracer) at(w time.Time) int64 { return int64(w.Sub(t.t0)) }

// add records a finished span and returns its index.
func (t *tracer) add(name string, start, end int64, parent, sess, hop int32, calls int) int32 {
	t.spans = append(t.spans, span{name: name, start: start, end: end, parent: parent, sess: sess, hop: hop, calls: int32(calls)})
	return int32(len(t.spans) - 1)
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Children may nest, overlap each other,
// or reach outside their parent; only their union inside the parent's
// interval is subtracted.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - covered(s.start, s.end, kids[int32(i)])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of intervals.
func covered(lo, hi int64, intervals [][2]int64) int64 {
	if len(intervals) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, in := range iv {
		a, b := in[0], in[1]
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// byName groups span durations (ns) by name, one value per span; a span
// covering several calls contributes its per-call mean.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		d := float64(s.dur())
		if s.calls > 1 {
			d /= float64(s.calls)
		}
		out[s.name] = append(out[s.name], d)
	}
	return out
}

// perCall is the mean ns per call over every span named name.
func perCall(spans []span, name string) float64 {
	var ns, calls float64
	for _, s := range spans {
		if s.name == name {
			ns += float64(s.dur())
			calls += float64(max(s.calls, 1))
		}
	}
	if calls == 0 {
		return 0
	}
	return ns / calls
}

// writeSpans writes the spans as JSON lines to dir/name.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name    string `json:"name"`
		Start   int64  `json:"start_ns"`
		End     int64  `json:"end_ns"`
		Parent  int32  `json:"parent"`
		Session int32  `json:"session"`
		Hop     int32  `json:"hop"`
		Calls   int32  `json:"calls,omitempty"`
	}
	for _, s := range spans {
		if err := enc.Encode(line{s.name, s.start, s.end, s.parent, s.sess, s.hop, s.calls}); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}
