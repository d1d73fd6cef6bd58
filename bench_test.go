package repro_test

import (
	"math/rand"
	"testing"

	"repro/guard"
	"repro/internal/chat"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/facemodel"
	"repro/internal/features"
	"repro/internal/luminance"
	"repro/internal/preprocess"
	"repro/internal/streambench"
)

// Figure benchmarks: each regenerates one figure of the paper's
// evaluation. They run the suite in quick mode so `go test -bench=.`
// finishes in minutes; run `cmd/experiments` (without -quick) for the
// full paper-scale protocol.

func quickSuite() *experiments.Suite {
	return experiments.NewSuite(experiments.Options{Seed: 1, Quick: true, Workers: 4})
}

func BenchmarkFig3Feasibility(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6Spectrum(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Preprocess(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9LOF(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Overall(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12Threshold(b *testing.B) {
	s := quickSuite()
	if _, err := s.Fig11(); err != nil { // warm the dataset cache
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13ScreenSize(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Voting(b *testing.B) {
	s := quickSuite()
	if _, err := s.Fig11(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig14(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15TrainSize(b *testing.B) {
	s := quickSuite()
	if _, err := s.Fig11(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig15(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16SamplingRate(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig16(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigAmbient(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Ambient(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig17AttackDelay(b *testing.B) {
	s := quickSuite()
	for i := 0; i < b.N; i++ {
		if _, err := s.Fig17(); err != nil {
			b.Fatal(err)
		}
	}
}

// Pipeline micro-benchmarks back the paper's Section IX claim that
// feature extraction plus classification complete well under 0.2 s per
// 15-second clip.

// benchSignals returns one genuine clip's luminance signals.
func benchSignals(b *testing.B) ([]float64, []float64) {
	b.Helper()
	s, err := guard.Simulate(guard.SimOptions{Seed: 1, Peer: guard.PeerGenuine})
	if err != nil {
		b.Fatal(err)
	}
	return s.T, s.R
}

func benchDetector(b *testing.B) *guard.Detector {
	b.Helper()
	sessions, err := guard.SimulateMany(guard.SimOptions{Seed: 10, Peer: guard.PeerGenuine}, 8)
	if err != nil {
		b.Fatal(err)
	}
	det, err := guard.TrainFromTraces(guard.DefaultOptions(), sessions)
	if err != nil {
		b.Fatal(err)
	}
	return det
}

func BenchmarkPipelinePreprocess(b *testing.B) {
	tx, _ := benchSignals(b)
	cfg := preprocess.DefaultConfig(10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := preprocess.Process(tx, cfg, preprocess.ScreenProminence); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineExtractFeatures(b *testing.B) {
	tx, rx := benchSignals(b)
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ExtractFeatures(cfg, tx, rx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineDetect(b *testing.B) {
	det := benchDetector(b)
	tx, rx := benchSignals(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.Detect(tx, rx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineClassifyOnly(b *testing.B) {
	sessions, err := guard.SimulateMany(guard.SimOptions{Seed: 10, Peer: guard.PeerGenuine}, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	var train []features.Vector
	for _, s := range sessions {
		v, err := core.ExtractFeatures(cfg, s.T, s.R)
		if err != nil {
			b.Fatal(err)
		}
		train = append(train, v)
	}
	det, err := core.Train(cfg, train)
	if err != nil {
		b.Fatal(err)
	}
	probe := train[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectVector(probe); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLuminanceExtraction(b *testing.B) {
	// The verifier-side cost of turning 150 received frames (one 15 s
	// window) into the face-reflected luminance signal.
	rng := rand.New(rand.NewSource(2))
	v, err := chat.NewVerifier(chat.DefaultVerifierConfig(facemodel.RandomPerson("a", rng)), rng)
	if err != nil {
		b.Fatal(err)
	}
	peer, err := chat.NewGenuineSource(chat.DefaultGenuineConfig(facemodel.RandomPerson("b", rng)), rng)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := chat.RunSession(chat.DefaultSessionConfig(), v, peer)
	if err != nil {
		b.Fatal(err)
	}
	ex, err := luminance.New(luminance.DefaultConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ex.FaceSignal(tr.Peer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulateSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := guard.Simulate(guard.SimOptions{Seed: int64(i), Peer: guard.PeerGenuine}); err != nil {
			b.Fatal(err)
		}
	}
}

// Streaming-engine benchmarks: the incremental StreamDetector against
// the legacy per-window rejudge and the batch reference, all judging the
// identical hop grid over the identical one-minute stream. These are the
// same paths cmd/benchstream freezes into BENCH_streaming.json; run that
// command to regenerate the committed baseline.

func benchStreamFixture(b *testing.B) *streambench.Fixture {
	b.Helper()
	fx, err := streambench.NewFixture(streambench.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	return fx
}

func reportStreamRates(b *testing.B, fx *streambench.Fixture) {
	b.ReportMetric(float64(fx.Hops)*float64(b.N)/b.Elapsed().Seconds(), "windows/sec")
	b.ReportMetric(b.Elapsed().Seconds()*1e9/float64(b.N)/float64(len(fx.Samples)), "ns/sample")
}

func BenchmarkStreamIncremental(b *testing.B) {
	fx := benchStreamFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.RunIncremental(); err != nil {
			b.Fatal(err)
		}
	}
	reportStreamRates(b, fx)
}

func BenchmarkStreamPerWindow(b *testing.B) {
	fx := benchStreamFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.RunPerWindow()
	}
	reportStreamRates(b, fx)
}

func BenchmarkStreamBatchReference(b *testing.B) {
	fx := benchStreamFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.RunBatchReference(); err != nil {
			b.Fatal(err)
		}
	}
	reportStreamRates(b, fx)
}

// BenchmarkTrainSequential / BenchmarkTrainParallel measure the parallel
// per-session feature extraction inside Train (Workers: 1 forces the
// sequential path; Workers: 8 fans out).
func benchmarkTrain(b *testing.B, workers int) {
	sessions, err := guard.SimulateMany(guard.SimOptions{Seed: 10, Peer: guard.PeerGenuine}, 16)
	if err != nil {
		b.Fatal(err)
	}
	opt := guard.DefaultOptions()
	opt.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := guard.TrainFromTraces(opt, sessions); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainWorkers1(b *testing.B) { benchmarkTrain(b, 1) }
func BenchmarkTrainWorkers8(b *testing.B) { benchmarkTrain(b, 8) }
