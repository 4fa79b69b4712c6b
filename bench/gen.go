package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// rng is a splitmix64 stream: tiny, seedable, and the bench's own, so
// the generated inputs do not change when the repository's rng does.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng { return &rng{s: seed} }

func (r *rng) u64() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.u64()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.u64() % uint64(n)) }

// jitter scales v by a uniform factor in [1-f, 1+f].
func (r *rng) jitter(v, f float64) float64 { return v * (1 - f + 2*f*r.float()) }

// fork derives an independent stream, so adding a consumer never
// shifts the draws of the others.
func (r *rng) fork(lane uint64) *rng { return newRNG(r.s ^ (lane+1)*0xd6e8feb86659fd93) }

// zipf samples ranks 0..n-1 with P(k) ∝ 1/(k+1)^s by inverting the
// cumulative distribution.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	var sum float64
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) sample(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// pacer is an open-loop schedule: operation i is due at start + i/rate
// whatever happened to the operations before it.
type pacer struct {
	start    time.Time
	interval time.Duration
}

func (p pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.interval) }

// waitUntil returns at t, or at once when t has passed. It never
// sleeps: under this load a sleeping goroutine wakes up to 3 ms after
// its timer in a quarter of the cases (README.md, "Steadiness"), which
// an open loop would charge to the system as latency. It yields
// instead, so every runnable goroutine goes first and the generator
// only uses the processor time nothing else wants.
func waitUntil(t time.Time) {
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// paced is the accounting of one open-loop operation. Latency runs
// from the due time, so a stall is charged to every operation it
// delays, not only the one that hit it.
type paced struct {
	late    time.Duration // send time − due time (0 when on time)
	latency time.Duration // completion − due time
}

func pacedResult(due, sent, done time.Time) paced {
	late := sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return paced{late: late, latency: done.Sub(due)}
}
