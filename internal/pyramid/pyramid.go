// Package pyramid implements the modified Gaussian Pyramid reduction the
// paper uses to collapse a two-dimensional background (or object) area
// into a single line of pixels — the signature — and finally a single
// pixel — the sign (SIGMOD 2000, §2.1–2.2, Figure 3).
//
// The reduction collapses five pixels into one, so input dimensions must
// belong to the size set {1, 5, 13, 29, 61, 125, ...} defined by
//
//	s_j = 1 + Σ_{i=2..j} 2^i    (Eq. 1)
//
// equivalently s_1 = 1 and s_j = 2·s_{j-1} + 3. Arbitrary dimensions are
// mapped to the nearest size-set value with Nearest (Table 1).
//
// Reduce1D and ReduceLineToPixel state the step literally, per channel
// (Figure 3, and the tests' oracle). The Reducer runs the same
// arithmetic on wide pixels: a uint64 with R in bits 0–15, G in 16–31
// and B in 32–47. One tap sums the weighted neighbours and the rounding
// 8 in all lanes at once, shifts right by 4 and masks each lane to its
// low 8 bits. That equals (a+4b+6c+4d+e+8)/16 per channel to the bit:
// a lane peaks at 16·255+8 = 4,088 < 2¹⁶, so no carry crosses lanes;
// the bits the shift brings down from the next lane land at bit 12 or
// above, which the mask drops; and on a non-negative sum a shift by 4
// is /16. Grids are reduced by whole rows, in place.
package pyramid

import (
	"fmt"

	"videodb/internal/video"
)

// SizeAt returns the jth element of the size set, s_j = 1 + Σ_{i=2..j} 2^i.
// It panics if j < 1.
func SizeAt(j int) int {
	if j < 1 {
		panic(fmt.Sprintf("pyramid: SizeAt(%d) with j < 1", j))
	}
	s := 1
	for i := 2; i <= j; i++ {
		s += 1 << uint(i)
	}
	return s
}

// Sizes returns all size-set values not exceeding max, in ascending order.
func Sizes(max int) []int {
	var out []int
	for j := 1; ; j++ {
		s := SizeAt(j)
		if s > max {
			return out
		}
		out = append(out, s)
	}
}

// IsSize reports whether n belongs to the size set.
func IsSize(n int) bool {
	for j := 1; ; j++ {
		s := SizeAt(j)
		if s == n {
			return true
		}
		if s > n {
			return false
		}
	}
}

// NearestIndex returns the index j such that SizeAt(j) is the size-set
// value nearest to n per the paper's approximation rule
// j = 2 + ⌊log2((n+3)/6)⌋, with n ∈ {1, 2} mapping to j = 1 (Table 1).
// It panics if n < 1.
func NearestIndex(n int) int {
	if n < 1 {
		panic(fmt.Sprintf("pyramid: NearestIndex(%d) with n < 1", n))
	}
	if n <= 2 {
		return 1
	}
	// ⌊log2((n+3)/6)⌋ computed in integer arithmetic.
	q := (n + 3) / 6
	log := 0
	for q >= 2 {
		q >>= 1
		log++
	}
	return 2 + log
}

// Nearest returns the size-set value nearest to n per Table 1.
func Nearest(n int) int {
	return SizeAt(NearestIndex(n))
}

// Reduce1D performs one pyramid reduction step on a line of pixels whose
// length is a size-set value greater than 1, producing a line of the
// previous size-set length. Each output pixel k is the 5-tap Gaussian
// (binomial 1-4-6-4-1) average of input pixels centred at 2k+2, rounded
// to nearest, per channel. It panics if the input length is not a
// size-set value > 1.
func Reduce1D(line []video.Pixel) []video.Pixel {
	n := len(line)
	if n <= 1 || !IsSize(n) {
		panic(fmt.Sprintf("pyramid: Reduce1D on line of length %d (not a size-set value > 1)", n))
	}
	mix := func(a, b, c, d, e uint8) uint8 {
		return uint8((int(a) + 4*int(b) + 6*int(c) + 4*int(d) + int(e) + 8) / 16)
	}
	out := make([]video.Pixel, (n-3)/2)
	for k := range out {
		a, b, c, d, e := line[2*k], line[2*k+1], line[2*k+2], line[2*k+3], line[2*k+4]
		out[k] = video.Pixel{
			R: mix(a.R, b.R, c.R, d.R, e.R),
			G: mix(a.G, b.G, c.G, d.G, e.G),
			B: mix(a.B, b.B, c.B, d.B, e.B),
		}
	}
	return out
}

// ReduceLineToPixel repeatedly reduces a line whose length is in the size
// set until a single pixel remains.
func ReduceLineToPixel(line []video.Pixel) video.Pixel {
	for len(line) > 1 {
		line = Reduce1D(line)
	}
	return line[0]
}

// A 1, and the low eight bits, in each of a wide pixel's three lanes.
const (
	laneOnes = 1 | 1<<16 | 1<<32
	laneMask = 0xFF * laneOnes
)

// Widen packs p into a wide pixel.
func Widen(p video.Pixel) uint64 {
	return uint64(p.R) | uint64(p.G)<<16 | uint64(p.B)<<32
}

// narrow unpacks a wide pixel whose lanes each hold a value ≤ 255.
func narrow(w uint64) video.Pixel {
	return video.Pixel{R: uint8(w), G: uint8(w >> 16), B: uint8(w >> 32)}
}

// tap is the 1-4-6-4-1 kernel with round-to-nearest, on all lanes at once.
func tap(a, b, c, d, e uint64) uint64 {
	return (a + e + (b+d)<<2 + c<<2 + c<<1 + 8*laneOnes) >> 4 & laneMask
}

// reduceRows collapses the w×h row-major grid p (h in the size set) to
// its first row, in place: output row k taps rows 2k…2k+4, all at or
// below k, so no row is overwritten before its last read. With w = 1
// it reduces a line.
func reduceRows(p []uint64, w, h int) {
	for ; h > 1; h = (h - 3) / 2 {
		for k := 0; k < (h-3)/2; k++ {
			dst, src := p[k*w:][:w], p[2*k*w:][:5*w]
			r0, r1, r2, r3, r4 := src[:w], src[w:][:w], src[2*w:][:w], src[3*w:][:w], src[4*w:][:w]
			for x := range dst {
				dst[x] = tap(r0[x], r1[x], r2[x], r3[x], r4[x])
			}
		}
	}
}

// Signature reduces every column of g (height must be a size-set value)
// to a single pixel, producing one line of g.W pixels — the signature of
// Figure 3. It panics if g.H is not a size-set value.
func Signature(g *video.Frame) []video.Pixel {
	r := NewReducer(g.W, g.H)
	r.load(g)
	sig := make([]video.Pixel, g.W)
	for x, w := range r.columns(g.W, g.H) {
		sig[x] = narrow(w)
	}
	return sig
}

// Reducer holds a reusable plane of wide pixels for repeated reductions
// — the per-frame hot path of ingestion. A Reducer is not safe for
// concurrent use; pool one per goroutine.
type Reducer struct {
	plane []uint64
}

// NewReducer returns a reducer able to handle grids of up to maxW·maxH
// pixels.
func NewReducer(maxW, maxH int) *Reducer {
	return &Reducer{plane: make([]uint64, max(maxW*maxH, 1))}
}

// Plane returns the reducer's plane as a w×h row-major grid of wide
// pixels (see Widen) for the caller to fill while it gathers a region
// out of a frame; ReducePlane then reduces it. It panics if the grid
// exceeds the reducer's capacity.
func (r *Reducer) Plane(w, h int) []uint64 {
	if w < 1 || h < 1 || w*h > len(r.plane) {
		panic(fmt.Sprintf("pyramid: reducer of %d pixels too small for %dx%d grid", len(r.plane), w, h))
	}
	return r.plane[:w*h]
}

// ReducePlane reduces the w×h grid last written through Plane: it
// writes the signature into sig when sig is non-nil (len ≥ w) and
// returns the sign. Both dimensions must be size-set values. The
// plane's contents are consumed.
func (r *Reducer) ReducePlane(w, h int, sig []video.Pixel) video.Pixel {
	if !IsSize(w) {
		panic(fmt.Sprintf("pyramid: sign of grid with width %d (not a size-set value)", w))
	}
	if sig != nil && len(sig) < w {
		panic(fmt.Sprintf("pyramid: signature destination %d < width %d", len(sig), w))
	}
	row := r.columns(w, h)
	if sig != nil {
		for x, p := range row {
			sig[x] = narrow(p)
		}
	}
	reduceRows(row, 1, w)
	return narrow(row[0])
}

// columns reduces the w×h plane column-wise and returns its first row:
// the wide signature.
func (r *Reducer) columns(w, h int) []uint64 {
	if !IsSize(h) {
		panic(fmt.Sprintf("pyramid: signature of grid with height %d (not a size-set value)", h))
	}
	p := r.Plane(w, h)
	reduceRows(p, w, h)
	return p[:w]
}

// load widens g into the plane.
func (r *Reducer) load(g *video.Frame) {
	p := r.Plane(g.W, g.H)
	for i, px := range g.Pix[:len(p)] {
		p[i] = Widen(px)
	}
}

// Reduce is the pure per-frame reduction step of the ingest pipeline:
// it computes g's signature into dst (len ≥ g.W) and collapses that
// line to the sign. It depends on no other frame, which is what lets
// ingest fan frames out to a worker pool. Both dimensions must be
// size-set values within the reducer's capacity.
func (r *Reducer) Reduce(g *video.Frame, dst []video.Pixel) video.Pixel {
	r.load(g)
	return r.ReducePlane(g.W, g.H, dst)
}

// Sign collapses g to a single pixel without allocating. Both
// dimensions must be size-set values within the reducer's capacity.
func (r *Reducer) Sign(g *video.Frame) video.Pixel {
	r.load(g)
	return r.ReducePlane(g.W, g.H, nil)
}

// Steps returns the number of reduction steps needed to collapse a line
// of size-set length n to one pixel. It panics if n is not in the size
// set. The paper states the overall complexity is O(m) in the number of
// pixels m; Steps is the log factor of Figure 3's cascade.
func Steps(n int) int {
	if !IsSize(n) {
		panic(fmt.Sprintf("pyramid: Steps(%d) not a size-set value", n))
	}
	steps := 0
	for n > 1 {
		n = (n - 3) / 2
		steps++
	}
	return steps
}
