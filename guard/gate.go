package guard

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Stream-health flag bits, one byte per tick in the detector's flag ring.
const (
	streamFlagGap uint8 = 1 << iota
	streamFlagLandmark
	streamFlagStale
)

// Each flag bit repeated in every byte of a 64-bit word.
const (
	laneGap      = 0x0101010101010101 * uint64(streamFlagGap)
	laneLandmark = 0x0101010101010101 * uint64(streamFlagLandmark)
	laneStale    = 0x0101010101010101 * uint64(streamFlagStale)
)

// tallyFlags counts the ticks carrying the gap, landmark and stale bits
// over one or two runs of flag bytes (a ring window wraps into two).
func tallyFlags(a, b []uint8) (gaps, lmLost, stale int) {
	g, l, s := tallyRun(a)
	gaps, lmLost, stale = tallyRun(b)
	return gaps + g, lmLost + l, stale + s
}

// tallyRun counts one run eight ticks per 64-bit word: masking a bit in
// every byte and counting the set bits counts the bytes that carry it,
// whatever else they hold. The tail shorter than a word is gathered
// byte by byte into one more word.
func tallyRun(p []uint8) (gaps, lmLost, stale int) {
	for ; len(p) >= 8; p = p[8:] {
		w := binary.LittleEndian.Uint64(p)
		gaps += bits.OnesCount64(w & laneGap)
		lmLost += bits.OnesCount64(w & laneLandmark)
		stale += bits.OnesCount64(w & laneStale)
	}
	var w uint64
	for i, f := range p {
		w |= uint64(f) << (8 * i)
	}
	return gaps + bits.OnesCount64(w&laneGap),
		lmLost + bits.OnesCount64(w&laneLandmark),
		stale + bits.OnesCount64(w&laneStale)
}

// gateWindow is the capture gate of every judged window. From an
// n-sample window's counts of gaps (missing, non-finite or
// landmark-lost samples), landmark losses and stale samples it scores
// the capture quality and names the first bound the window breaks —
// landmark, gap, stale, in that order — or ReasonNone when it passes.
// The stream paths and DetectSamples all decide here.
func gateWindow(n, gaps, lmLost, stale int, maxGap, maxStale float64) (ReasonCode, float64) {
	quality := 1 - (float64(gaps)+0.5*float64(stale))/float64(n)
	if quality < 0 {
		quality = 0
	}
	switch {
	case float64(lmLost)/float64(n) > maxGap:
		return ReasonLandmarkLoss, quality
	case float64(gaps)/float64(n) > maxGap:
		return ReasonGapRatio, quality
	case float64(stale)/float64(n) > maxStale:
		return ReasonStale, quality
	}
	return ReasonNone, quality
}

// The Reason formats of a stream window's gate exits and no-challenge
// abstention.
const (
	landmarkReasonFormat    = "%s: %d/%d samples without a landmark fix (bound %.0f%%)"
	gapReasonFormat         = "%s: %d/%d samples missing or invalid (bound %.0f%%)"
	staleReasonFormat       = "%s: %d/%d received samples stale (bound %.0f%%)"
	noChallengeReasonFormat = "%s: only %d challenges in window (need %d)"
)

// gateShape is what a stream window's gate texts depend on besides the
// count: the window length, the two bounds and the challenge minimum.
type gateShape struct {
	n, minChallenges int
	maxGap, maxStale float64
}

// streamGate is the capture gate of one stream shape with every Reason
// text its exits and the no-challenge abstention can carry, formatted
// once. A hop's abstention reads its Reason from these tables instead
// of formatting it; only an extraction error's text is built per hop.
type streamGate struct {
	gateShape
	landmark, gap, stale []string // indexed by the count, 0 through n
	noChallenge          []string // indexed by TxChanges below minChallenges
}

func newStreamGate(s gateShape) *streamGate {
	g := &streamGate{
		gateShape:   s,
		landmark:    make([]string, s.n+1),
		gap:         make([]string, s.n+1),
		stale:       make([]string, s.n+1),
		noChallenge: make([]string, min(s.minChallenges, s.n+1)),
	}
	for c := 0; c <= s.n; c++ {
		g.landmark[c] = fmt.Sprintf(landmarkReasonFormat, ReasonLandmarkLoss, c, s.n, 100*s.maxGap)
		g.gap[c] = fmt.Sprintf(gapReasonFormat, ReasonGapRatio, c, s.n, 100*s.maxGap)
		g.stale[c] = fmt.Sprintf(staleReasonFormat, ReasonStale, c, s.n, 100*s.maxStale)
	}
	for c := range g.noChallenge {
		g.noChallenge[c] = fmt.Sprintf(noChallengeReasonFormat, ReasonNoChallenge, c, s.minChallenges)
	}
	return g
}

// open opens the result of a hop window from its flag tally: the
// quality score and counts and, at a gate exit, the code and its
// Reason. Only a window that passes goes on to judgeStreamWindow, so a
// gate exit costs neither stream path the window copy or the scratch.
func (g *streamGate) open(gaps, lmLost, stale int) WindowResult {
	code, quality := gateWindow(g.n, gaps, lmLost, stale, g.maxGap, g.maxStale)
	res := WindowResult{Quality: quality, Gaps: gaps, Stale: stale}
	switch code {
	case ReasonLandmarkLoss:
		res.Reason = g.landmark[lmLost]
	case ReasonGapRatio:
		res.Reason = g.gap[gaps]
	case ReasonStale:
		res.Reason = g.stale[stale]
	default:
		return res
	}
	res.Inconclusive, res.Code = true, code
	return res
}

// noChallengeReason is the Reason of a window with only txChanges of
// the minChallenges significant transmitted changes.
func (g *streamGate) noChallengeReason(txChanges int) string {
	if txChanges < len(g.noChallenge) {
		return g.noChallenge[txChanges]
	}
	return fmt.Sprintf(noChallengeReasonFormat, ReasonNoChallenge, txChanges, g.minChallenges)
}

// gateCache holds a Detector's stream gates, one per shape, so every
// session of a shape shares one set of texts.
type gateCache struct {
	mu      sync.Mutex
	byShape map[gateShape]*streamGate
}

// streamGate returns the gate of cfg's shape (cfg has its defaults
// resolved), building it on the shape's first use.
func (d *Detector) streamGate(cfg StreamConfig) *streamGate {
	s := gateShape{
		n:             cfg.WindowSamples,
		minChallenges: cfg.MinChallenges,
		maxGap:        cfg.MaxGapRatio,
		maxStale:      cfg.MaxStaleRatio,
	}
	c := &d.gates
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.byShape[s]
	if g == nil {
		if c.byShape == nil {
			c.byShape = make(map[gateShape]*streamGate)
		}
		g = newStreamGate(s)
		c.byShape[s] = g
	}
	return g
}
