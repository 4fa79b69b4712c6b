package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: geometric buckets from 1µs upward growing
// 7% per bucket (HDR-style — relative error is bounded by the growth
// factor at every magnitude, unlike fixed-width buckets). 280 buckets
// reach past 100s, far beyond any request this repo serves.
const (
	histMin     = 1e-6
	histGrowth  = 1.07
	histBuckets = 280
)

var logGrowth = math.Log(histGrowth)

// histBound returns bucket i's upper bound in seconds.
func histBound(i int) float64 {
	return histMin * math.Pow(histGrowth, float64(i))
}

// Histogram is a fixed-geometry latency histogram with bounded
// relative error (±7% per recorded value) and O(1) lock-free recording.
// The zero value is not ready; use NewHistogram. Safe for concurrent
// use: any number of goroutines may Record while others read.
type Histogram struct {
	counts [histBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Uint64 // the three float64s are kept as their bits
	min    atomic.Uint64
	max    atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.Float64bits(math.Inf(1)))
	h.max.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// fold replaces the float64 held in a with f(held, v), retrying when a
// concurrent fold lands first.
func fold(a *atomic.Uint64, v float64, f func(held, v float64) float64) {
	for {
		old := a.Load()
		next := math.Float64bits(f(math.Float64frombits(old), v))
		if next == old || a.CompareAndSwap(old, next) {
			return
		}
	}
}

func add(a, b float64) float64 { return a + b }

func load(a *atomic.Uint64) float64 { return math.Float64frombits(a.Load()) }

// bucketFor maps a value in seconds to its bucket index.
func bucketFor(seconds float64) int {
	if seconds <= histMin {
		return 0
	}
	i := 1 + int(math.Log(seconds/histMin)/logGrowth)
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// Record adds one observation in seconds. The count moves last, so a
// reader that sees n observations also sees their buckets and extremes.
func (h *Histogram) Record(seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	fold(&h.min, seconds, math.Min)
	fold(&h.max, seconds, math.Max)
	fold(&h.sum, seconds, add)
	h.counts[bucketFor(seconds)].Add(1)
	h.count.Add(1)
}

// RecordDuration adds one observation.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(d.Seconds()) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the exact mean of all observations (the sum is tracked
// outside the buckets, so the mean carries no bucketing error).
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return load(&h.sum) / float64(n)
}

// Quantile returns the value at quantile q in [0,1], accurate to the
// bucket growth factor, clamped to the exact observed min and max
// (Quantile(0) and Quantile(1) are exactly those).
func (h *Histogram) Quantile(q float64) float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	lo, hi := load(&h.min), load(&h.max)
	rank := int64(math.Ceil(q * float64(n)))
	if rank <= 1 {
		return lo
	}
	if rank >= n {
		return hi
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			// Report the bucket's geometric midpoint.
			floor := histMin
			if i > 0 {
				floor = histBound(i - 1)
			}
			v := math.Sqrt(floor * histBound(i))
			return math.Min(math.Max(v, lo), hi)
		}
	}
	return hi
}
