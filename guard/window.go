package guard

import "fmt"

// ReasonCode classifies why a window was inconclusive. The string form is
// stable and embedded in WindowResult.Reason, so alerting rules can match
// on either.
type ReasonCode int

// Inconclusive reasons.
const (
	// ReasonNone marks a conclusive window.
	ReasonNone ReasonCode = iota
	// ReasonExtraction: the feature pipeline failed on the window.
	ReasonExtraction
	// ReasonNoChallenge: the verifier issued no significant luminance
	// change, so there is nothing to correlate.
	ReasonNoChallenge
	// ReasonGapRatio: too many samples were missing or invalid.
	ReasonGapRatio
	// ReasonLandmarkLoss: landmark localization failed on too many
	// received frames.
	ReasonLandmarkLoss
	// ReasonStale: too many received samples were stale repeats (frozen
	// stream, duplicated delivery).
	ReasonStale
)

// String returns the stable reason label.
func (c ReasonCode) String() string {
	switch c {
	case ReasonNone:
		return "none"
	case ReasonExtraction:
		return "extraction failed"
	case ReasonNoChallenge:
		return "no challenge"
	case ReasonGapRatio:
		return "gap ratio"
	case ReasonLandmarkLoss:
		return "landmark loss"
	case ReasonStale:
		return "stale samples"
	default:
		return fmt.Sprintf("ReasonCode(%d)", int(c))
	}
}

// StreamSample is one tick of a live stream with its capture health, as
// a lossy real-world path delivers it.
type StreamSample struct {
	// Transmitted and Received are the two luminance values.
	Transmitted, Received float64
	// LandmarkLost marks a tick whose received frame had no usable
	// landmark fix; Received is ignored and the last good value held.
	LandmarkLost bool
	// Stale marks a received value that is a repeat of an earlier frame
	// (frozen stream, duplicate delivery). It is used as-is but counted
	// against window quality.
	Stale bool
}

// WindowResult is the outcome of one judged window: a StreamDetector hop
// or a DetectSamples window.
type WindowResult struct {
	// Verdict is valid when Inconclusive is false.
	Verdict Verdict
	// Inconclusive marks windows that could not be judged; they carry no
	// vote.
	Inconclusive bool
	// Code classifies an inconclusive window; ReasonNone when conclusive.
	Code ReasonCode
	// Reason explains an inconclusive window. It always contains
	// Code.String() plus the specifics.
	Reason string
	// Challenges is the number of transmitted significant changes seen.
	Challenges int
	// Quality scores the window's capture health in [0, 1]: 1 is a clean
	// gapless window; gaps, landmark losses and stale samples lower it.
	// Conclusive windows carry it too, as a confidence signal.
	Quality float64
	// Gaps counts samples that were missing, non-finite, or landmark-lost.
	Gaps int
	// Stale counts stale received samples.
	Stale int
}
