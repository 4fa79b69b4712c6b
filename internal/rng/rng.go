// Package rng provides a small deterministic pseudo-random number
// generator used by every stochastic component in the repository.
//
// The generator is a 64-bit PCG variant (pcg64-xsl-rr over a 128-bit
// state emulated with two 64-bit words). Unlike math/rand, its stream is
// fixed by this package alone, so synthetic workloads and experiment
// results are reproducible across Go releases and architectures.
package rng

import (
	"math"
	"math/bits"
)

// RNG is a deterministic pseudo-random number generator. The zero value
// is not valid; use New.
type RNG struct {
	hi, lo uint64
}

// New returns a generator seeded with seed. Two generators with the same
// seed produce identical streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream determined by seed.
func (r *RNG) Seed(seed uint64) {
	// Run the seed through splitmix64 twice to fill the 128-bit state,
	// avoiding correlated streams for nearby seeds.
	r.lo = splitmix64(&seed)
	r.hi = splitmix64(&seed)
	// Warm up: PCG recommends advancing once after seeding.
	r.Uint64()
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns a uniformly distributed 64-bit value.
func (r *RNG) Uint64() uint64 {
	// 128-bit LCG step: state = state*mul + inc, with a fixed odd
	// increment, modulo 2^128.
	const mulHi = 2549297995355413924
	const mulLo = 4865540595714422341
	const incHi = 6364136223846793005
	const incLo = 1442695040888963407

	hi, lo := bits.Mul64(r.lo, mulLo)
	hi += r.hi*mulLo + r.lo*mulHi
	lo, carry := bits.Add64(lo, incLo, 0)
	hi += incHi + carry
	r.hi, r.lo = hi, lo

	// Output function: XSL-RR.
	return bits.RotateLeft64(hi^lo, -int(hi>>58))
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n) without modulo
// bias, using Lemire-style rejection.
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// IntRange returns a uniformly distributed int in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("rng: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Float64Range returns a uniformly distributed float64 in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + r.Float64()*(hi-lo)
}

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
	}
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided
// swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Split returns a new generator whose stream is derived from, but
// independent of, this one. It is used to give each synthetic clip or
// worker its own reproducible stream.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}
