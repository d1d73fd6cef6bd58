package preprocess

import (
	"math"
	"math/rand"
	"testing"
)

// The streaming chain's contract is bit-identity with the batch chain
// over the same unbroken stream, NaN spans included — compare through
// Float64bits so NaN == NaN.

func chainStream(t *testing.T, sig []float64, cfg Config) []float64 {
	t.Helper()
	c, err := NewStreamChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 0, len(sig))
	for _, v := range sig {
		if y, ok := c.Push(v); ok {
			out = append(out, y)
		}
	}
	return append(out, c.Flush()...)
}

func TestStreamChainMatchesSmoothSignal(t *testing.T) {
	cfg := DefaultConfig(10)
	rng := rand.New(rand.NewSource(99))
	sigs := map[string][]float64{
		"short":    {1, 2, 3}, // shorter than the chain latency
		"constant": make([]float64, 200),
		"long":     nil,
		"nan-span": nil,
	}
	long := make([]float64, 900)
	for i := range long {
		long[i] = 120 + 80*math.Sin(float64(i)/9) + 10*rng.NormFloat64()
	}
	sigs["long"] = long
	nan := append([]float64(nil), long[:400]...)
	for i := 100; i < 112; i++ {
		nan[i] = math.NaN()
	}
	sigs["nan-span"] = nan

	for name, sig := range sigs {
		want, err := SmoothSignal(sig, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := chainStream(t, sig, cfg)
		if len(got) != len(want) {
			t.Fatalf("%s: streaming emitted %d samples, batch %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s sample %d: streaming %v, batch %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestSmoothSignalMatchesProcess pins SmoothSignal to Process: both
// implement the Section V chain, and the duplicated stage sequence must
// not drift apart.
func TestSmoothSignalMatchesProcess(t *testing.T) {
	cfg := DefaultConfig(10)
	rng := rand.New(rand.NewSource(3))
	sig := make([]float64, 300)
	for i := range sig {
		sig[i] = 128 + 64*math.Sin(float64(i)/7) + 5*rng.NormFloat64()
	}
	res, err := Process(sig, cfg, ScreenProminence)
	if err != nil {
		t.Fatal(err)
	}
	smoothed, err := SmoothSignal(sig, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(smoothed) != len(res.Smoothed) {
		t.Fatalf("lengths differ: %d vs %d", len(smoothed), len(res.Smoothed))
	}
	for i := range smoothed {
		if math.Float64bits(smoothed[i]) != math.Float64bits(res.Smoothed[i]) {
			t.Fatalf("sample %d: SmoothSignal %v, Process %v", i, smoothed[i], res.Smoothed[i])
		}
	}
}

func TestStreamChainLatency(t *testing.T) {
	cfg := DefaultConfig(10)
	c, err := NewStreamChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.LowPassTaps/2 + cfg.SGWindow/2
	if c.Latency() != want {
		t.Fatalf("latency %d, want %d", c.Latency(), want)
	}
	// First emission arrives exactly after latency+1 pushes.
	for i := 0; i < want; i++ {
		if _, ok := c.Push(1); ok {
			t.Fatalf("emitted at push %d, before the pipeline filled", i)
		}
	}
	if _, ok := c.Push(1); !ok {
		t.Fatal("no emission once the pipeline filled")
	}
}

func TestStreamChainRejectsBadConfig(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.LowPassTaps = 4
	if _, err := NewStreamChain(cfg); err == nil {
		t.Fatal("even tap count accepted")
	}
	if _, err := SmoothSignal(nil, cfg); err == nil {
		t.Fatal("SmoothSignal accepted invalid config")
	}
}

// TestChainDesignSharedByInterleavedChains: chains built from one
// ChainDesign share its coefficients, yet interleaved pushes into two of
// them reproduce two independently designed chains bit for bit — the
// shared slices are read-only.
func TestChainDesignSharedByInterleavedChains(t *testing.T) {
	cfg := DefaultConfig(10)
	design, err := NewChainDesign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := design.NewChain(), design.NewChain()
	refA, err := NewStreamChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := NewStreamChain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	sigA, sigB := make([]float64, 400), make([]float64, 400)
	for i := range sigA {
		sigA[i] = 120 + 80*math.Sin(float64(i)/9) + 10*rng.NormFloat64()
		sigB[i] = 90 + 40*math.Sin(float64(i)/5) + 3*rng.NormFloat64()
	}
	for i := range sigA {
		ga, oka := a.Push(sigA[i])
		gb, okb := b.Push(sigB[i])
		wa, _ := refA.Push(sigA[i])
		wb, _ := refB.Push(sigB[i])
		if !oka || !okb {
			continue
		}
		if math.Float64bits(ga) != math.Float64bits(wa) || math.Float64bits(gb) != math.Float64bits(wb) {
			t.Fatalf("sample %d: shared-design chains %v, %v; own designs %v, %v", i, ga, gb, wa, wb)
		}
	}
	if _, err := NewChainDesign(Config{}); err == nil {
		t.Error("zero config designed")
	}
}
