package dsp

import "slices"

// Peak is a local maximum found by FindPeaks.
type Peak struct {
	// Index is the sample index of the peak.
	Index int
	// Height is the sample value at the peak.
	Height float64
	// Prominence measures how much the peak stands out from the
	// surrounding baseline (classic topographic prominence).
	Prominence float64
}

// FindPeaks locates local maxima of x whose topographic prominence is at
// least minProminence, mirroring scipy.signal.find_peaks semantics closely
// enough for the paper's pipeline: a peak is a sample strictly greater than
// its left neighbour and at least its right neighbour (plateaus report
// their left edge), excluding the first and last samples.
func FindPeaks(x []float64, minProminence float64) []Peak {
	return AppendPeaks(nil, x, minProminence)
}

// AppendPeaks is FindPeaks appending to dst: it returns dst extended by
// the peaks of x. A caller that passes dst[:0] back window after window
// finds peaks without allocating once dst has grown to the largest peak
// count it meets.
func AppendPeaks(dst []Peak, x []float64, minProminence float64) []Peak {
	n := len(x)
	if n < 3 {
		return dst
	}
	i := 1
	for i < n-1 {
		if x[i] > x[i-1] {
			// Walk a plateau to its end. Tolerance-based: two samples
			// an Eps apart are the same plateau, so prominence is not
			// decided by the last bit of a rounding difference.
			j := i
			for j < n-1 && ApproxEqual(x[j+1], x[i]) {
				j++
			}
			if j < n-1 && x[j+1] < x[i] {
				mid := (i + j) / 2
				prom := prominence(x, mid)
				if prom >= minProminence {
					//lint:ignore vclint/hotpathalloc at most window/2 peaks per window, and a reused dst stops growing once it holds the largest peak count seen
					dst = append(dst, Peak{Index: mid, Height: x[mid], Prominence: prom})
				}
				i = j + 1
				continue
			}
			i = j + 1
			continue
		}
		i++
	}
	return dst
}

// prominence computes the topographic prominence of the peak at index p:
// extend left and right until a sample higher than x[p] (or a signal edge)
// is reached; the base on each side is the minimum encountered; prominence
// is x[p] minus the higher of the two bases.
func prominence(x []float64, p int) float64 {
	h := x[p]
	leftBase := h
	for i := p - 1; i >= 0; i-- {
		if x[i] > h {
			break
		}
		if x[i] < leftBase {
			leftBase = x[i]
		}
	}
	rightBase := h
	for i := p + 1; i < len(x); i++ {
		if x[i] > h {
			break
		}
		if x[i] < rightBase {
			rightBase = x[i]
		}
	}
	base := leftBase
	if rightBase > base {
		base = rightBase
	}
	return h - base
}

// PeakIndices returns just the indices of the peaks.
func PeakIndices(peaks []Peak) []int {
	return AppendPeakIndices(make([]int, 0, len(peaks)), peaks)
}

// AppendPeakIndices is PeakIndices appending to dst.
func AppendPeakIndices(dst []int, peaks []Peak) []int {
	n := len(dst)
	dst = slices.Grow(dst, len(peaks))[:n+len(peaks)]
	for i, p := range peaks {
		dst[n+i] = p.Index
	}
	return dst
}
