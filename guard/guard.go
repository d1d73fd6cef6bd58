// Package guard is the public API of the LumiGuard defense: protecting
// real-time video chat against fake facial videos generated by face
// reenactment (Shang & Wu, ICDCS 2020).
//
// The defense runs entirely on the verifier's device. It consumes two
// luminance time-series sampled at the same rate:
//
//   - the transmitted signal: the mean luma of each frame the verifier
//     sends (her own video, which the peer's screen re-emits), and
//   - the received signal: the mean luma of the lower-nasal-bridge region
//     of each frame received from the untrusted peer.
//
// If the peer is a live human, the second signal tracks the first (screen
// light reflects off the face); a reenactment attacker's fake stream does
// not. Train once on a handful of genuine sessions — from any legitimate
// users, no per-user enrollment and no attacker data — then call Detect
// per 15-second window and combine several verdicts with CombineVerdicts.
package guard

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/preprocess"
	"repro/trace"
)

// Options tunes the detector. The zero value is not valid; start from
// DefaultOptions.
type Options struct {
	// SamplingRateHz is the rate of both luminance signals (paper: 10).
	SamplingRateHz float64
	// Threshold is the LOF decision threshold tau (paper: 3).
	Threshold float64
	// Neighbors is the LOF neighbourhood size k (paper: 5).
	Neighbors int
	// VoteCoefficient is the majority-vote fraction for multi-round
	// decisions (paper: 0.7).
	VoteCoefficient float64
	// SkipEnrollmentCheck disables the training-quality gate. By default
	// Train rejects a training set in which fewer than half the sessions
	// produced any matched luminance change — such "featureless" models
	// classify everyone as genuine (see the network-RTT experiment).
	SkipEnrollmentCheck bool
	// Workers bounds the parallelism of Train's per-session feature
	// extraction. Zero means runtime.GOMAXPROCS(0); negative is invalid.
	Workers int
}

// workerCount resolves the effective pool size.
func (o Options) workerCount() int {
	if o.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// DefaultOptions returns the paper's operating point.
func DefaultOptions() Options {
	return Options{
		SamplingRateHz:  10,
		Threshold:       3,
		Neighbors:       5,
		VoteCoefficient: 0.7,
	}
}

// coreConfig translates Options into the full pipeline configuration.
func (o Options) coreConfig() core.Config {
	cfg := core.ConfigAtRate(o.SamplingRateHz)
	cfg.Threshold = o.Threshold
	cfg.Neighbors = o.Neighbors
	cfg.VoteCoefficient = o.VoteCoefficient
	return cfg
}

// Session is one training observation: the two signals of a genuine chat
// window, index-aligned and equally long.
type Session struct {
	Transmitted []float64
	Received    []float64
}

// Verdict is the outcome of one detection attempt.
type Verdict struct {
	// Attacker is true when the window was classified as a fake stream.
	Attacker bool
	// Score is the LOF value; ~1 means typical genuine behaviour, values
	// above the threshold flag an attacker.
	Score float64
	// Features holds (z1, z2, z3, z4) for diagnostics.
	Features [4]float64
}

// Detector is a trained defense instance. It is safe for concurrent use
// after Train returns: every method only reads the trained state, so any
// number of goroutines may call Detect, DetectTrace and CombineVerdicts
// on one shared instance, and a caller with many windows fans them out
// over it directly (see also core.Detector, which carries the same
// guarantee). The one thing it builds later, a stream shape's gate
// texts, is built once behind a mutex.
type Detector struct {
	cfg   core.Config
	det   *core.Detector
	chain *preprocess.ChainDesign // filter coefficients shared by every StreamDetector
	gates gateCache               // gate texts shared by every StreamDetector of a shape
}

// newDetector pairs a trained core model with the filter design its
// stream detectors share, so the coefficients are computed once per
// trained detector rather than once per session.
func newDetector(cfg core.Config, det *core.Detector) (*Detector, error) {
	chain, err := preprocess.NewChainDesign(cfg.Preprocess)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	return &Detector{cfg: cfg, det: det, chain: chain}, nil
}

// Train fits a detector from genuine sessions (paper: 20 windows are
// plenty; eight already work, see Fig. 15). Sessions may come from any
// legitimate users, not necessarily the people later verified. Feature
// extraction fans out over opt.Workers goroutines; the resulting model is
// identical to sequential training regardless of pool size.
func Train(opt Options, sessions []Session) (*Detector, error) {
	start := time.Now() //lint:ignore vclint/nodeterm feeds the guard_train_seconds latency histogram only, never the model or a trace
	metricTrainTotal.Inc()
	det, err := train(opt, sessions)
	metricTrainSeconds.ObserveSince(start)
	if err != nil {
		metricTrainErrors.Inc()
		obs.Default.RecordSpan("guard.train", start, "error: "+err.Error())
		return nil, err
	}
	obs.Default.RecordSpan("guard.train", start, fmt.Sprintf("sessions=%d", len(sessions)))
	return det, nil
}

// train is Train without the instrumentation wrapper.
func train(opt Options, sessions []Session) (*Detector, error) {
	cfg := opt.coreConfig()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	if opt.Workers < 0 {
		return nil, fmt.Errorf("guard: negative workers %d", opt.Workers)
	}
	if len(sessions) <= cfg.Neighbors {
		return nil, fmt.Errorf("guard: %d training sessions insufficient for k = %d", len(sessions), cfg.Neighbors)
	}
	for i, s := range sessions {
		if err := checkWindow(s.Transmitted, s.Received); err != nil {
			return nil, fmt.Errorf("guard: training session %d: %w", i, err)
		}
	}
	vectors, matched, err := extractTrainingVectors(len(sessions), opt.workerCount(), func(i int) (features.Vector, features.Detail, error) {
		return core.ExtractFeaturesDetailed(cfg, sessions[i].Transmitted, sessions[i].Received)
	})
	if err != nil {
		return nil, err
	}
	if !opt.SkipEnrollmentCheck && matched*2 < len(sessions) {
		return nil, fmt.Errorf("guard: only %d/%d training sessions produced matched luminance changes; "+
			"the environment (screen, distance, network delay) cannot carry the challenge — "+
			"fix the setup or set SkipEnrollmentCheck", matched, len(sessions))
	}
	det, err := core.Train(cfg, vectors)
	if err != nil {
		return nil, fmt.Errorf("guard: %w", err)
	}
	return newDetector(cfg, det)
}

// extractTrainingVectors runs extract on sessions 0..n-1 over a bounded
// worker pool. Results keep session order, and when several sessions
// fail the error of the lowest-indexed one is reported, so the outcome
// (model and message) matches the sequential loop exactly. A panic in
// extract is contained to its session's error.
func extractTrainingVectors(n, workers int, extract func(i int) (features.Vector, features.Detail, error)) ([]features.Vector, int, error) {
	vectors := make([]features.Vector, n)
	details := make([]features.Detail, n)
	errs := make([]error, n)
	if workers > n {
		workers = n
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				func() {
					defer func() {
						if r := recover(); r != nil {
							metricPanics.With("train").Inc()
							errs[i] = fmt.Errorf("feature extraction panicked: %v", r) //lint:ignore vclint/errmsgprefix always re-wrapped below with the "guard: training session %d" prefix
						}
					}()
					vectors[i], details[i], errs[i] = extract(i)
				}()
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	matched := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return nil, 0, fmt.Errorf("guard: training session %d: %w", i, errs[i])
		}
		if details[i].Matched > 0 {
			matched++
		}
	}
	return vectors, matched, nil
}

// TrainFromTraces trains from recorded trace sessions, using only those
// labelled legitimate.
func TrainFromTraces(opt Options, sessions []trace.Session) (*Detector, error) {
	var train []Session
	for _, s := range sessions {
		if s.Ground == trace.LabelLegit {
			train = append(train, Session{Transmitted: s.T, Received: s.R})
		}
	}
	if len(train) == 0 {
		return nil, fmt.Errorf("guard: no sessions labelled %q", trace.LabelLegit)
	}
	return Train(opt, train)
}

// checkWindow rejects NaN/Inf samples before they reach the DSP chain,
// where a single non-finite value would smear through every FIR window
// and produce a meaningless — but confidently scored — feature vector.
func checkWindow(transmitted, received []float64) error {
	if err := preprocess.CheckFinite(transmitted); err != nil {
		return fmt.Errorf("transmitted signal: %w", err) //lint:ignore vclint/errmsgprefix checkWindow results are always wrapped by Detect/DetectTrace with the guard: prefix
	}
	if err := preprocess.CheckFinite(received); err != nil {
		return fmt.Errorf("received signal: %w", err) //lint:ignore vclint/errmsgprefix checkWindow results are always wrapped by Detect/DetectTrace with the guard: prefix
	}
	return nil
}

// Detect classifies one window of the two signals. Non-finite samples are
// rejected with a descriptive error; for lossy streams with gaps, use
// DetectSamples, which degrades to an inconclusive result instead.
func (d *Detector) Detect(transmitted, received []float64) (Verdict, error) {
	start := time.Now() //lint:ignore vclint/nodeterm feeds the guard_detect_seconds latency histogram only, never the verdict
	metricDetectTotal.Inc()
	defer metricDetectSeconds.ObserveSince(start)
	if err := checkWindow(transmitted, received); err != nil {
		metricDetectErrors.Inc()
		return Verdict{}, fmt.Errorf("guard: %w", err)
	}
	dec, err := d.det.DetectSignals(transmitted, received)
	if err != nil {
		metricDetectErrors.Inc()
		return Verdict{}, fmt.Errorf("guard: %w", err)
	}
	if dec.Attacker {
		verdictAttacker.Inc()
	} else {
		verdictGenuine.Inc()
	}
	return Verdict{
		Attacker: dec.Attacker,
		Score:    dec.Score,
		Features: [4]float64{dec.Features.Z1, dec.Features.Z2, dec.Features.Z3, dec.Features.Z4},
	}, nil
}

// DetectTrace classifies a recorded session.
func (d *Detector) DetectTrace(s trace.Session) (Verdict, error) {
	if s.Fs != d.cfg.Preprocess.Fs {
		return Verdict{}, fmt.Errorf("guard: trace sampled at %v Hz, detector expects %v", s.Fs, d.cfg.Preprocess.Fs)
	}
	return d.Detect(s.T, s.R)
}

// CombineVerdicts applies the paper's majority vote (Section VII-B): the
// peer is flagged as an attacker when attacker verdicts exceed
// VoteCoefficient times the number of attempts.
func (d *Detector) CombineVerdicts(verdicts []Verdict) (bool, error) {
	votes := 0
	for _, v := range verdicts {
		if v.Attacker {
			votes++
		}
	}
	flagged, err := core.CombineVotes(votes, len(verdicts), d.cfg.VoteCoefficient)
	if err != nil {
		return false, fmt.Errorf("guard: %w", err)
	}
	return flagged, nil
}

// Threshold returns the active decision threshold.
func (d *Detector) Threshold() float64 { return d.cfg.Threshold }
