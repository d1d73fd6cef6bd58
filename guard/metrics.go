package guard

import (
	"strings"

	"repro/internal/obs"
)

// Observability instruments for the public API. Verdict and abstention
// counters are the operator's first-line health signal: a rising
// inconclusive share means capture quality is eating the vote budget,
// and a drifting attacker/genuine mix on a stable population means the
// model or the environment moved. OBSERVABILITY.md catalogs every family
// and what "bad" looks like.
var (
	metricTrainTotal = obs.Default.Counter(
		"guard_train_total", "Train calls (including TrainFromTraces).")
	metricTrainErrors = obs.Default.Counter(
		"guard_train_errors_total", "Train calls that returned an error (validation, enrollment gate, extraction).")
	metricTrainSeconds = obs.Default.Histogram(
		"guard_train_seconds", "End-to-end Train latency.", obs.LatencyBuckets())

	metricDetectTotal = obs.Default.Counter(
		"guard_detect_total", "Detect calls (direct, trace and DetectSamples paths included).")
	metricDetectErrors = obs.Default.Counter(
		"guard_detect_errors_total", "Detect calls rejected with an error (non-finite input, extraction failure).")
	metricDetectSeconds = obs.Default.Histogram(
		"guard_detect_seconds", "End-to-end Detect latency per window.", obs.LatencyBuckets())

	metricVerdicts = obs.Default.CounterVec(
		"guard_verdicts_total", "Conclusive verdicts by outcome.", "verdict")
	verdictAttacker = metricVerdicts.With("attacker")
	verdictGenuine  = metricVerdicts.With("genuine")

	metricWindowsConclusive = obs.Default.Counter(
		"guard_windows_conclusive_total", "Quality-gated windows that produced a verdict (StreamDetector hops and DetectSamples).")
	metricWindowsInconclusive = obs.Default.CounterVec(
		"guard_windows_inconclusive_total", "Windows abstained from, by ReasonCode.", "reason")
	metricWindowQuality = obs.Default.Histogram(
		"guard_window_quality", "Capture-health score of judged windows (1 = clean, gapless).", obs.RatioBuckets())

	metricPanics = obs.Default.CounterVec(
		"guard_panics_recovered_total", "Panics contained to one training session, by recovery site.", "site")

	metricStreamHops = obs.Default.Counter(
		"guard_stream_hops_total", "Hop windows judged by the incremental StreamDetector.")
	metricStreamHopSeconds = obs.Default.Histogram(
		"guard_stream_hop_seconds", "Per-hop judge latency on the incremental path (window copy, peaks, features, LOF).", obs.LatencyBuckets())
)

// reasonLabel turns a ReasonCode's stable string into a label value
// ("gap ratio" -> "gap_ratio") so alerting rules never quote spaces.
// Every inconclusive hop asks for one, so the defined codes' labels are
// built once, in reasonLabels.
func reasonLabel(c ReasonCode) string {
	if c >= 0 && int(c) < len(reasonLabels) {
		return reasonLabels[c]
	}
	return labelOf(c)
}

// labelOf builds c's label from its string.
func labelOf(c ReasonCode) string {
	return strings.ReplaceAll(c.String(), " ", "_")
}

// reasonLabels holds the labels of ReasonNone through ReasonStale.
var reasonLabels = func() (l [ReasonStale + 1]string) {
	for c := range l {
		l[c] = labelOf(ReasonCode(c))
	}
	return l
}()

// recordWindow feeds one quality-gated window result (StreamDetector or
// DetectSamples) into the abstention counters and the quality histogram.
func recordWindow(res *WindowResult) {
	metricWindowQuality.Observe(res.Quality)
	if res.Inconclusive {
		metricWindowsInconclusive.With(reasonLabel(res.Code)).Inc()
		return
	}
	metricWindowsConclusive.Inc()
}
