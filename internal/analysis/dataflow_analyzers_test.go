package analysis_test

// Tests for the call-graph-powered analyzers: hotpathalloc,
// atomicwrite, locksafe, the interprocedural side of nodeterm, and
// goleak's launcher extension. Single-package cases ride the same
// runOne helper as the syntactic analyzers; cross-package chains load
// multi-fixture sets through LoadFixtures so call-graph edges resolve
// across package boundaries exactly as in the real module.

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// runMulti loads several in-memory packages (dependencies first) and
// runs a single analyzer over all of them.
func runMulti(t *testing.T, analyzer string, fixtures []analysis.FixturePkg, catalog map[string]bool) []analysis.Diagnostic {
	t.Helper()
	a := analysis.ByName(analyzer)
	if a == nil {
		t.Fatalf("unknown analyzer %q", analyzer)
	}
	pkgs, err := analysis.LoadFixtures(fixtures)
	if err != nil {
		t.Fatalf("LoadFixtures: %v", err)
	}
	return analysis.Run(pkgs, []*analysis.Analyzer{a}, catalog)
}

func TestHotPathAlloc(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		src     string
		want    int
		wantSub string
	}{
		{
			name: "bad make on sample root",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) float64 {
	buf := make([]float64, 4)
	buf[0] = v
	return buf[0]
}
`,
			want:    1,
			wantSub: "make",
		},
		{
			name: "bad alloc reached through helper carries the chain",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) float64 { return helper(v) }

func helper(v float64) float64 {
	buf := make([]float64, 1)
	buf[0] = v
	return buf[0]
}
`,
			want:    1,
			wantSub: "stream.Push -> stream.helper",
		},
		{
			name: "bad interface boxing of a variable",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) { sink(v) }

func sink(x any) { _ = x }
`,
			want:    1,
			wantSub: "interface boxing",
		},
		{
			name: "bad closure literal on sample tier",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) float64 {
	f := func() float64 { return v }
	return f()
}
`,
			want:    1,
			wantSub: "closure literal",
		},
		{
			name: "good zero-alloc push",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) float64 { return v * 2 }
`,
			want: 0,
		},
		{
			name: "good panic message is not boxing",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) float64 {
	if v < 0 {
		panic("stream: negative sample")
	}
	return v
}
`,
			want: 0,
		},
		{
			name: "good hop root may allocate outside loops",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath-hop
func Judge(xs []float64) []float64 {
	out := make([]float64, len(xs))
	copy(out, xs)
	return out
}
`,
			want: 0,
		},
		{
			name: "bad loop-carried append on hop tier",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath-hop
func Judge(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		out = append(out, x*2)
	}
	return out
}
`,
			want:    1,
			wantSub: "inside a loop",
		},
		{
			name: "good sample traversal stops at hop root",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) {
	if v > 1 {
		judge()
	}
}

//vclint:hotpath-hop
func judge() {
	buf := make([]int, 1)
	_ = buf
}
`,
			want: 0,
		},
		{
			name: "suppressed with reason",
			path: "repro/internal/stream",
			src: `package stream

//vclint:hotpath
func Push(v float64) float64 {
	//lint:ignore vclint/hotpathalloc amortized by the ring growth policy measured in the benchmark
	buf := make([]float64, 4)
	buf[0] = v
	return buf[0]
}
`,
			want: 0,
		},
		{
			name: "missing registered guard roots are findings",
			path: "repro/guard",
			src: `package guard

func Unrelated() {}
`,
			want:    5,
			wantSub: "registered hot-path root",
		},
	}
	runAnalyzerCases(t, "hotpathalloc", cases)
}

func TestAtomicWrite(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		src     string
		want    int
		wantSub string
	}{
		{
			name: "bad direct raw write in durable package",
			path: "repro/internal/sessionstore",
			src: `package sessionstore

import "os"

func Save(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
`,
			want:    1,
			wantSub: "raw os.WriteFile",
		},
		{
			name: "bad raw write reached through a helper",
			path: "repro/internal/sessionstore",
			src: `package sessionstore

import "os"

func Save(path string, b []byte) error { return rawWrite(path, b) }

func rawWrite(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
`,
			want:    2, // the helper's direct sink and the entry's tainted call
			wantSub: "guard.AtomicWriteFile",
		},
		{
			name: "good blessed implementation and its callers",
			path: "repro/guard",
			src: `package guard

import (
	"io"
	"os"
)

func AtomicWriteFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(".", "tmp")
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

func Save(path string) error {
	return AtomicWriteFile(path, func(io.Writer) error { return nil })
}
`,
			want: 0,
		},
		{
			name: "good raw write outside the durable scope",
			path: "repro/trace",
			src: `package trace

import "os"

func Dump(path string, b []byte) error {
	return os.WriteFile(path, b, 0o644)
}
`,
			want: 0,
		},
		{
			name: "suppressed with reason",
			path: "repro/internal/sessionstore",
			src: `package sessionstore

import "os"

func Save(path string, b []byte) error {
	//lint:ignore vclint/atomicwrite scratch spill file, rebuilt from the log on recovery; torn bytes are discarded
	return os.WriteFile(path, b, 0o644)
}
`,
			want: 0,
		},
	}
	runAnalyzerCases(t, "atomicwrite", cases)
}

func TestLockSafe(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		src     string
		want    int
		wantSub string
	}{
		{
			name: "bad lock passed by value",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Configure(mu sync.Mutex) {}
`,
			want:    1,
			wantSub: "by value",
		},
		{
			name: "bad struct containing lock passed by value",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

type guarded struct {
	mu sync.Mutex
	n  int
}

func Read(g guarded) int { return g.n }
`,
			want:    1,
			wantSub: "by value",
		},
		{
			name: "bad assignment copies a lock",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Clone() {
	var m sync.Mutex
	n := m
	n.Lock()
	n.Unlock()
}
`,
			want:    1,
			wantSub: "copies a value containing a lock",
		},
		{
			name: "bad channel send while holding the lock",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Publish(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	ch <- 1
	mu.Unlock()
}
`,
			want:    1,
			wantSub: "channel send while holding mu",
		},
		{
			name: "bad unlock missing on the early return",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Update(mu *sync.Mutex, skip bool) {
	mu.Lock()
	if skip {
		return
	}
	mu.Unlock()
}
`,
			want:    1,
			wantSub: "may return while still holding mu",
		},
		{
			name: "good deferred unlock covers every path",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Update(mu *sync.Mutex, skip bool) {
	mu.Lock()
	defer mu.Unlock()
	if skip {
		return
	}
}
`,
			want: 0,
		},
		{
			name: "good non-blocking select while held",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func TryPublish(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	select {
	case ch <- 1:
	default:
	}
	mu.Unlock()
}
`,
			want: 0,
		},
		{
			name: "good rwmutex read path",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Snapshot(mu *sync.RWMutex, xs []int) int {
	mu.RLock()
	n := len(xs)
	mu.RUnlock()
	return n
}
`,
			want: 0,
		},
		{
			name: "good lock method on a non-sync type",
			path: "repro/internal/chat",
			src: `package chat

type gate struct{ n int }

func (g *gate) Lock()   { g.n++ }
func (g *gate) Unlock() { g.n-- }

func Use(g *gate, ch chan int) {
	g.Lock()
	ch <- 1
	g.Unlock()
}
`,
			want: 0,
		},
		{
			name: "suppressed blocking send with reason",
			path: "repro/internal/chat",
			src: `package chat

import "sync"

func Publish(mu *sync.Mutex, ch chan int) {
	mu.Lock()
	//lint:ignore vclint/locksafe the channel is buffered and drained by the same owner; the send cannot block
	ch <- 1
	mu.Unlock()
}
`,
			want: 0,
		},
	}
	runAnalyzerCases(t, "locksafe", cases)
}

func TestGoLeakLauncher(t *testing.T) {
	cases := []struct {
		name    string
		path    string
		src     string
		want    int
		wantSub string
	}{
		{
			name: "bad closure handed to a launcher",
			path: "repro/internal/chat",
			src: `package chat

func launch(f func()) { go f() }

func Spawn() { launch(func() {}) }
`,
			want:    1,
			wantSub: "hands",
		},
		{
			name: "bad bound method value handed to a launcher",
			path: "repro/internal/chat",
			src: `package chat

type worker struct{}

func (w *worker) run() {}

func launch(f func()) { go f() }

func Spawn(w *worker) { launch(w.run) }
`,
			want:    1,
			wantSub: "hands",
		},
		{
			name: "good caller manages lifetime with a context",
			path: "repro/internal/chat",
			src: `package chat

import "context"

func launch(f func()) { go f() }

func Spawn(ctx context.Context) {
	_ = ctx
	launch(func() {})
}
`,
			want: 0,
		},
		{
			name: "good launcher itself is exempt for the parameter spawn",
			path: "repro/internal/chat",
			src: `package chat

func launch(f func()) { go f() }
`,
			want: 0,
		},
		{
			name: "suppressed detached spawn via launcher",
			path: "repro/internal/chat",
			src: `package chat

func launch(f func()) { go f() }

func Spawn() {
	//lint:ignore vclint/goleak fire-and-forget metrics flush; the process owns its lifetime
	launch(func() {})
}
`,
			want: 0,
		},
	}
	runAnalyzerCases(t, "goleak", cases)
}

// TestNoDetermInterprocedural exercises the call-graph taint across
// fixture packages.
func TestNoDetermInterprocedural(t *testing.T) {
	helperSrc := `package timing

import "time"

func Stamp() int64 { return now() }

func now() int64 { return time.Now().UnixNano() }
`
	scopedSrc := `package cluster

import "repro/internal/timing"

func Step() int64 { return timing.Stamp() }
`
	t.Run("bad reach through two unscoped hops", func(t *testing.T) {
		diags := runMulti(t, "nodeterm", []analysis.FixturePkg{
			{ImportPath: "repro/internal/timing", Files: map[string]string{"timing.go": helperSrc}},
			{ImportPath: "repro/internal/cluster", Files: map[string]string{"cluster.go": scopedSrc}},
		}, nil)
		if len(diags) != 1 {
			t.Fatalf("got %d finding(s), want 1:\n%s", len(diags), renderDiags(diags))
		}
		if !strings.Contains(diags[0].Message, "reaches time.Now") {
			t.Errorf("message %q does not mention the reached source", diags[0].Message)
		}
		if !strings.Contains(diags[0].Pos.Filename, "cluster") {
			t.Errorf("finding at %s, want the scoped call site", diags[0].Pos.Filename)
		}
	})

	t.Run("good declared-metering suppression at the source", func(t *testing.T) {
		suppressed := `package timing

import "time"

func Stamp() int64 {
	//lint:ignore vclint/nodeterm feeds the latency histogram only; never returned to deterministic callers as signal
	return time.Now().UnixNano()
}
`
		diags := runMulti(t, "nodeterm", []analysis.FixturePkg{
			{ImportPath: "repro/internal/timing", Files: map[string]string{"timing.go": suppressed}},
			{ImportPath: "repro/internal/cluster", Files: map[string]string{"cluster.go": scopedSrc}},
		}, nil)
		if len(diags) != 0 {
			t.Fatalf("got %d finding(s), want 0:\n%s", len(diags), renderDiags(diags))
		}
	})

	t.Run("good obs is the declared metering sink", func(t *testing.T) {
		obsSrc := `package obs

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`
		callerSrc := `package cluster

import "repro/internal/obs"

func Step() int64 { return obs.Stamp() }
`
		diags := runMulti(t, "nodeterm", []analysis.FixturePkg{
			{ImportPath: "repro/internal/obs", Files: map[string]string{"obs.go": obsSrc}},
			{ImportPath: "repro/internal/cluster", Files: map[string]string{"cluster.go": callerSrc}},
		}, nil)
		if len(diags) != 0 {
			t.Fatalf("got %d finding(s), want 0:\n%s", len(diags), renderDiags(diags))
		}
	})

	t.Run("good injected clock value is not a source", func(t *testing.T) {
		injectSrc := `package cluster

import "time"

type sim struct {
	clock func() time.Time
}

func newSim() *sim { return &sim{clock: time.Now} }
`
		diags := runMulti(t, "nodeterm", []analysis.FixturePkg{
			{ImportPath: "repro/internal/cluster", Files: map[string]string{"sim.go": injectSrc}},
		}, nil)
		if len(diags) != 0 {
			t.Fatalf("got %d finding(s), want 0:\n%s", len(diags), renderDiags(diags))
		}
	})
}

// TestBadIgnoreKnowsDataflowAnalyzers pins the new analyzer names into
// the suppression vocabulary: directives naming them are accepted, not
// badignore findings.
func TestBadIgnoreKnowsDataflowAnalyzers(t *testing.T) {
	src := `package dsp

//lint:ignore vclint/hotpathalloc reason one
var a = 0

//lint:ignore vclint/atomicwrite reason two
var b = 0

//lint:ignore vclint/locksafe reason three
var c = 0

//lint:ignore vclint/nodeterm reason four
var d = 0
`
	diags := runOne(t, "floateq", "repro/internal/dsp", src, nil)
	if len(diags) != 0 {
		t.Fatalf("directives naming registered analyzers were rejected:\n%s", renderDiags(diags))
	}
}

// runAnalyzerCases is the shared driver for the per-analyzer tables
// above, mirroring TestAnalyzers' checks.
func runAnalyzerCases(t *testing.T, analyzer string, cases []struct {
	name    string
	path    string
	src     string
	want    int
	wantSub string
}) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diags := runOne(t, analyzer, tc.path, tc.src, nil)
			if len(diags) != tc.want {
				t.Fatalf("got %d finding(s), want %d:\n%s", len(diags), tc.want, renderDiags(diags))
			}
			for _, d := range diags {
				if d.Analyzer != analyzer {
					t.Errorf("finding attributed to %q, want %q", d.Analyzer, analyzer)
				}
				if tc.wantSub != "" && !strings.Contains(d.Message, tc.wantSub) {
					t.Errorf("message %q does not contain %q", d.Message, tc.wantSub)
				}
			}
		})
	}
}
