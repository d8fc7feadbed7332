package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a latency distribution may report, from
// the median up.  A percentile is reported only when at least minBeyond
// samples lie beyond it, so a tail figure is never one or two outliers.
var tailLadder = []float64{50, 90, 99, 99.9}

const minBeyond = 10

// highestPercentile returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, and false when even the median
// has too few.
func highestPercentile(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range tailLadder {
		// The epsilon absorbs the rounding of 100-99.9.
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile returns the p-th percentile of xs (0 ≤ p ≤ 100) by linear
// interpolation between closest ranks; xs need not be sorted.  It returns
// NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the first and third quartiles of xs with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), so the spreads the
// comparator reports match the ones a Python script computes from the same
// values.  A single value is both quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		// statistics.quantiles, method="exclusive", in its exact integer
		// form: the rank is clamped to 1..n-1 and the weight is not, so very
		// small samples extrapolate just as Python does.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles of xs as a share of their
// median: the run-to-run noise figure every bound is compared against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// windowRates splits [0, elapsed) into whole windows of length w and returns,
// for each, how many of the completion times ends fall in it, per second.  A
// trailing partial window is left out.  The median of these rates is a
// throughput that one stall, or one burst of costly ops, moves by at most one
// window.
func windowRates(ends []time.Duration, elapsed, w time.Duration) []float64 {
	n := int(elapsed / w)
	if n == 0 {
		return nil
	}
	counts := make([]float64, n)
	for _, t := range ends {
		if i := int(t / w); t >= 0 && i < n {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return counts
}
