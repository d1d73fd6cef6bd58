// Package chaos injects deterministic, seedable faults into the detection
// pipeline: dropped/duplicated/reordered/jittered luminance samples, NaN
// bursts, landmark-failure spans, stale frames, and (via FaultySource)
// stalled, panicking or frozen frame sources. Every fault is drawn from a
// seeded generator and recorded as an Event, so the same seed replays the
// same fault schedule — the golden-trace and soak tests depend on that.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/guard"
	"repro/internal/preprocess"
	"repro/internal/transport"
)

// Config sets the per-sample fault mix. All rates are probabilities per
// clean sample in [0, 0.9]; zero disables that fault.
type Config struct {
	// Seed drives the fault schedule; equal seeds replay equal faults.
	Seed int64
	// DropRate is the chance a sample is lost in flight.
	DropRate float64
	// DupRate is the chance a sample is delivered twice.
	DupRate float64
	// SwapRate is the chance a sample swaps places with its predecessor
	// (late arrival / reordering).
	SwapRate float64
	// JitterSec perturbs every timestamp uniformly in [-J, +J].
	JitterSec float64
	// NaNBurstRate is the chance a burst of non-finite values starts.
	NaNBurstRate float64
	// NaNBurstLen is the burst length in samples; 0 means 3.
	NaNBurstLen int
	// LandmarkLossRate is the chance a landmark-failure span starts
	// (PerturbWindow only).
	LandmarkLossRate float64
	// LandmarkLossLen is the span length in samples; 0 means 5.
	LandmarkLossLen int
	// StaleRate is the chance a sample is marked stale (PerturbWindow
	// only).
	StaleRate float64
}

// withDefaults resolves zero lengths.
func (c Config) withDefaults() Config {
	if c.NaNBurstLen == 0 {
		c.NaNBurstLen = 3
	}
	if c.LandmarkLossLen == 0 {
		c.LandmarkLossLen = 5
	}
	return c
}

// Validate checks the fault mix.
func (c Config) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"drop", c.DropRate}, {"dup", c.DupRate}, {"swap", c.SwapRate},
		{"nan burst", c.NaNBurstRate}, {"landmark loss", c.LandmarkLossRate},
		{"stale", c.StaleRate},
	} {
		if r.v < 0 || r.v > 0.9 {
			return fmt.Errorf("chaos: %s rate %v outside [0, 0.9]", r.name, r.v)
		}
	}
	if c.JitterSec < 0 {
		return fmt.Errorf("chaos: negative jitter %v", c.JitterSec)
	}
	if c.NaNBurstLen < 0 || c.LandmarkLossLen < 0 {
		return fmt.Errorf("chaos: negative burst length")
	}
	return nil
}

// AtIntensity maps a single knob x in [0, 1] to a proportional fault mix,
// for sweeps: x = 0 is a clean stream, x = 1 loses ~15% of samples, has
// frequent NaN bursts and landmark failures, and ±30 ms timestamp jitter.
func AtIntensity(seed int64, x float64) (Config, error) {
	if x < 0 || x > 1 {
		return Config{}, fmt.Errorf("chaos: intensity %v outside [0, 1]", x)
	}
	return Config{
		Seed:             seed,
		DropRate:         0.15 * x,
		DupRate:          0.05 * x,
		SwapRate:         0.05 * x,
		JitterSec:        0.03 * x,
		NaNBurstRate:     0.02 * x,
		LandmarkLossRate: 0.02 * x,
		StaleRate:        0.05 * x,
	}, nil
}

// Link derives matching transport-level faults from the same mix, so a
// wire test can subject real frame packets to the path this injector
// models at the sample level.
func (c Config) Link() transport.LinkConfig {
	return transport.LinkConfig{
		Delay:    10 * time.Millisecond,
		Jitter:   time.Duration(c.JitterSec * float64(time.Second)),
		DropRate: c.DropRate,
	}
}

// Event is one injected fault, recorded for determinism checks and golden
// traces. Index is the position in the clean input series.
type Event struct {
	Index int
	Kind  string // drop | dup | swap | nan | lmloss | stale | transient | stall | freeze | panic
	Len   int    // span faults only
}

// String renders "kind@index" or "kind@index+len".
func (e Event) String() string {
	if e.Len > 1 {
		return fmt.Sprintf("%s@%d+%d", e.Kind, e.Index, e.Len)
	}
	return fmt.Sprintf("%s@%d", e.Kind, e.Index)
}

// Injector perturbs sample series according to a seeded schedule. Not
// safe for concurrent use; each goroutine gets its own.
type Injector struct {
	cfg    Config
	rng    *rand.Rand
	events []Event
}

// New builds an injector.
func New(cfg Config) (*Injector, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Events returns a copy of every fault injected so far, in order.
func (in *Injector) Events() []Event {
	out := make([]Event, len(in.events))
	copy(out, in.events)
	return out
}

// Trace renders the fault schedule as one line per event, for golden
// files.
func (in *Injector) Trace() []string {
	out := make([]string, len(in.events))
	for i, e := range in.events {
		out[i] = e.String()
	}
	return out
}

// record appends an event.
func (in *Injector) record(idx int, kind string, n int) {
	in.events = append(in.events, Event{Index: idx, Kind: kind, Len: n})
}

// PerturbSeries converts a clean uniform series at fs Hz into the
// timestamped samples a degraded capture path would deliver: samples
// dropped, duplicated, swapped out of order, timestamps jittered, and NaN
// bursts where the extractor lost the face. Feed the result to
// guard.(*Detector).DetectSamples or preprocess.Resample.
func (in *Injector) PerturbSeries(clean []float64, fs float64) []preprocess.Sample {
	out := make([]preprocess.Sample, 0, len(clean))
	nanLeft := 0
	for i, v := range clean {
		t := float64(i) / fs
		if nanLeft > 0 {
			nanLeft--
			v = math.NaN()
		} else if in.cfg.NaNBurstRate > 0 && in.rng.Float64() < in.cfg.NaNBurstRate {
			in.record(i, "nan", in.cfg.NaNBurstLen)
			nanLeft = in.cfg.NaNBurstLen - 1
			v = math.NaN()
		}
		if in.cfg.DropRate > 0 && in.rng.Float64() < in.cfg.DropRate {
			in.record(i, "drop", 1)
			continue
		}
		if in.cfg.JitterSec > 0 {
			t += (2*in.rng.Float64() - 1) * in.cfg.JitterSec
		}
		out = append(out, preprocess.Sample{T: t, V: v})
		if in.cfg.DupRate > 0 && in.rng.Float64() < in.cfg.DupRate {
			in.record(i, "dup", 1)
			out = append(out, preprocess.Sample{T: t + 0.01/fs, V: v})
		}
		if in.cfg.SwapRate > 0 && len(out) >= 2 && in.rng.Float64() < in.cfg.SwapRate {
			in.record(i, "swap", 1)
			out[len(out)-1], out[len(out)-2] = out[len(out)-2], out[len(out)-1]
		}
	}
	return out
}

// PerturbWindow degrades an aligned transmitted/received window into the
// per-frame stream a guard.StreamDetector consumes: landmark-failure
// spans, NaN bursts in the received signal, and stale frames. Panics if
// the slices differ in length (caller bug, not a stream fault).
func (in *Injector) PerturbWindow(tx, rx []float64) []guard.StreamSample {
	if len(tx) != len(rx) {
		panic(fmt.Sprintf("chaos: window length mismatch %d vs %d", len(tx), len(rx)))
	}
	out := make([]guard.StreamSample, len(tx))
	lmLeft, nanLeft := 0, 0
	for i := range tx {
		s := guard.StreamSample{Transmitted: tx[i], Received: rx[i]}
		if lmLeft > 0 {
			lmLeft--
			s.LandmarkLost = true
			s.Received = math.NaN()
		} else if in.cfg.LandmarkLossRate > 0 && in.rng.Float64() < in.cfg.LandmarkLossRate {
			in.record(i, "lmloss", in.cfg.LandmarkLossLen)
			lmLeft = in.cfg.LandmarkLossLen - 1
			s.LandmarkLost = true
			s.Received = math.NaN()
		}
		if nanLeft > 0 {
			nanLeft--
			s.Received = math.NaN()
		} else if in.cfg.NaNBurstRate > 0 && in.rng.Float64() < in.cfg.NaNBurstRate {
			in.record(i, "nan", in.cfg.NaNBurstLen)
			nanLeft = in.cfg.NaNBurstLen - 1
			s.Received = math.NaN()
		}
		if in.cfg.StaleRate > 0 && in.rng.Float64() < in.cfg.StaleRate {
			in.record(i, "stale", 1)
			s.Stale = true
		}
		out[i] = s
	}
	return out
}
