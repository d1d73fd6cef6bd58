// Command perfbench is the repository benchmark: a single-process load
// generator that drives LumiGuard's public entry points and reports
// end-to-end and per-layer metrics for one workload per run.
//
//	bash _perfbench/run.sh --workload live_calls --seed 1 --seconds 15 --trace 0
//
// It builds and runs as its own module. The leading underscore of its
// directory keeps the repro module's ./... patterns and module-wide lint
// walk from treating it as part of the system under test.
//
// Each run generates its inputs from the seed, measures an open-loop
// phase (work released at a fixed absolute rate, latency timed from each
// item's due time) and a closed-loop phase (work offered as fast as the
// single worker takes it), checks every verdict against a reference, and
// prints a table followed by one JSON line. With --trace 0 the JSON holds
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics
// of a separate traced run. Any oracle or decomposition mismatch, or a
// run whose generator fell behind, exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// params are the command-line settings of one run.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	spansDir string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics and the notes printed beside them.
type report struct {
	metrics map[string]metric
	notes   map[string]string
	ops     ops
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

// set records a metric; note (optional) states its sample count or base.
func (r *report) set(name string, v float64, unit, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
		note = "no samples; " + note
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
	if note != "" {
		r.notes[name] = note
	}
}

// print writes the table and, as the last line, the JSON result. A run
// that reaches it has passed every output check; mismatches end the run
// with an error instead.
func (r *report) print() error {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Printf("%-36s %14.6g %-9s %s\n", n, m.Value, m.Unit, r.notes[n])
	}
	for k, c := range r.ops.n {
		if c > 0 {
			fmt.Printf("ops.%-32s %14d\n", outcomeNames[k], c)
		}
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, r.ops.attempted(), r.ops.failed(), r.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(params) (*report, error){
	"live_calls":      func(p params) (*report, error) { return runLive(p, liveCalls(p.smoke)) },
	"live_degraded":   func(p params) (*report, error) { return runLive(p, liveDegraded(p.smoke)) },
	"segmented_calls": func(p params) (*report, error) { return runSegmented(p, segmentedCalls(p.smoke)) },
}

func main() {
	var p params
	var trace int
	flag.StringVar(&p.workload, "workload", "", "workload: live_calls, live_degraded or segmented_calls")
	flag.Int64Var(&p.seed, "seed", 1, "input seed; equal seeds give equal inputs")
	flag.Float64Var(&p.seconds, "seconds", 15, "measured seconds (open-loop plus closed-loop phase)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced variant and reports per-layer metrics")
	flag.BoolVar(&p.smoke, "smoke", false, "shrink every workload to a few hundred sessions (tests)")
	flag.StringVar(&p.spansDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	flag.Parse()
	p.traced = trace == 1
	if trace != 0 && trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", trace))
	}
	run, ok := workloads[p.workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", p.workload))
	}
	if p.seconds <= 0 {
		fail(fmt.Errorf("--seconds must be positive"))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	start := time.Now()
	rep, err := run(p)
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v done in %.1f s\n", p.workload, p.seed, p.traced, time.Since(start).Seconds())
	if err := rep.print(); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

// heapInUse forces a collection and returns the live heap in bytes.
func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// cpuTime is the CPU time the process has used. Throughput is measured
// against it rather than the wall clock, so that time the process spends
// descheduled on a shared host does not count as work.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// closedSlices is how many equal slices a closed-loop phase is timed in.
// Capacity is the median slice's rate, so that a slice disturbed by a
// collection cycle or a busy neighbour on a shared host does not set it.
const closedSlices = 5

// medianRate runs slice closedSlices times and returns the median of the
// work each did per CPU-second.
func medianRate(slice func() (work float64, cpu time.Duration, err error)) (float64, error) {
	rates := make([]float64, closedSlices)
	for i := range rates {
		w, cpu, err := slice()
		if err != nil {
			return 0, err
		}
		rates[i] = w / cpu.Seconds()
	}
	return median(rates), nil
}
