package main

import "sort"

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs, interpolating
// linearly between the two closest ranks, or 0 for an empty sample. xs is
// left unmodified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// windows is how many consecutive parts of a phase's latency sample each
// percentile is taken over; the reported value is the median of the parts'
// percentiles, so a burst of outside load on the machine during one part
// does not move it.
const windows = 5

// minPerWindow is the fewest samples a window holds. A sample too small
// to fill two windows gives a plain quantile: the median of a few
// medians of a handful of samples each varies more than their median.
const minPerWindow = 50

// windowedQuantile splits xs, in completion order, into up to windows
// equal parts of at least minPerWindow samples and returns the median of
// their q-quantiles.
func windowedQuantile(xs []float64, q float64) float64 {
	n := min(windows, len(xs)/minPerWindow)
	if n < 2 {
		return quantile(xs, q)
	}
	per := make([]float64, n)
	for w := range per {
		per[w] = quantile(xs[w*len(xs)/n:(w+1)*len(xs)/n], q)
	}
	return median(per)
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean of xs, or 0 for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0, so that a layer that saw no work
// reads 0 instead of NaN (which JSON cannot carry).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
