package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile (nearest rank) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of xs and returns its middle (mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// ratio is num/den, 0 when nothing was counted.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: below that the value is a handful of outliers, not a
// property of the system.
const minBeyond = 10

// beyond counts the samples strictly past the nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tail returns the highest of p99, p95, p90 that has at least
// minBeyond samples beyond it, and which percentile that was. With
// fewer than 100 samples no tail is supported and the median is
// returned with pct 50.
func tail(sorted []float64) (value float64, pct int) {
	for _, p := range []int{99, 95, 90} {
		q := float64(p) / 100
		if beyond(len(sorted), q) >= minBeyond {
			return quantile(sorted, q), p
		}
	}
	return quantile(sorted, 0.5), 50
}

// dist summarizes one latency class.
type dist struct {
	N       int
	P50     float64
	Tail    float64
	TailPct int
}

// summarize computes the reported quantiles of xs (which it sorts).
func summarize(xs []float64) dist {
	sort.Float64s(xs)
	d := dist{N: len(xs), P50: quantile(xs, 0.5)}
	d.Tail, d.TailPct = tail(xs)
	return d
}
