// Package region implements the paper's frame-area geometry (SIGMOD
// 2000, §2.1–2.2, Figures 1–2): the ⊓-shaped fixed background area
// (FBA), its unfolding into the flat transformed background area (TBA),
// and the rectangular fixed object area (FOA) covering the foreground.
//
// Given a frame of c columns and r rows, the paper estimates
//
//	w' = ⌊c/10⌋        (border width: 10% of the frame width)
//	b' = c − 2·w'      (FOA width)
//	h' = r − w'        (FOA height)
//	L' = c + 2·h'      (TBA length after unfolding)
//
// and then snaps each estimate to the nearest Gaussian-pyramid size-set
// value (Table 1), yielding w, b, h, and L.
package region

import (
	"fmt"

	"videodb/internal/pyramid"
	"videodb/internal/video"
)

// DefaultBorderFrac is the fraction of the frame width used for the FBA
// border. The paper determined 10% empirically (§2.2).
const DefaultBorderFrac = 0.10

// Geometry holds the derived region dimensions for one frame size.
type Geometry struct {
	// C and R are the frame width (columns) and height (rows).
	C, R int

	// WPrime, BPrime, HPrime, LPrime are the raw estimates before
	// size-set approximation.
	WPrime, BPrime, HPrime, LPrime int

	// W, B, H, L are the size-set approximations: W is the border
	// width/TBA height, L the TBA length, B×H the FOA dimensions.
	W, B, H, L int

	// maps is derived from the fields above once per geometry. A
	// pointer keeps Geometry a comparable value.
	maps *samplingMaps
}

// samplingMaps records, for every TBA and FOA pixel, the frame pixel it
// samples, so that extraction is a copy through an index rather than a
// walk of the ⊓ unfolding per pixel.
type samplingMaps struct {
	// tba holds W rows of L indices into a frame's Pix.
	tba []int32
	// foaCols holds the frame column of each of the B FOA columns,
	// foaRows the frame row of each of the H FOA rows.
	foaCols, foaRows []int32
}

// New computes the geometry for a c×r frame using the default 10%
// border. It returns an error if the frame is too small to carve out the
// regions.
func New(c, r int) (Geometry, error) {
	return NewWithBorderFrac(c, r, DefaultBorderFrac)
}

// NewWithBorderFrac computes the geometry with a custom border fraction,
// used by the w' sensitivity ablation. The fraction is applied to the
// frame width as in the paper (w' = ⌊c·frac⌋).
func NewWithBorderFrac(c, r int, frac float64) (Geometry, error) {
	if c <= 0 || r <= 0 {
		return Geometry{}, fmt.Errorf("region: invalid frame size %dx%d", c, r)
	}
	if frac <= 0 || frac >= 0.5 {
		return Geometry{}, fmt.Errorf("region: border fraction %v outside (0, 0.5)", frac)
	}
	g := Geometry{C: c, R: r}
	g.WPrime = int(float64(c) * frac)
	if g.WPrime < 1 {
		return Geometry{}, fmt.Errorf("region: frame width %d too small for border fraction %v", c, frac)
	}
	g.BPrime = c - 2*g.WPrime
	g.HPrime = r - g.WPrime
	g.LPrime = c + 2*g.HPrime
	if g.BPrime < 1 || g.HPrime < 1 {
		return Geometry{}, fmt.Errorf("region: frame %dx%d too small to hold an FOA", c, r)
	}
	g.W = pyramid.Nearest(g.WPrime)
	g.B = pyramid.Nearest(g.BPrime)
	g.H = pyramid.Nearest(g.HPrime)
	g.L = pyramid.Nearest(g.LPrime)
	g.maps = g.sample()
	return g, nil
}

// sample derives the sampling maps from stripToFrame and scale, which
// remain the one statement of the unfolding and the resampling.
func (g Geometry) sample() *samplingMaps {
	m := &samplingMaps{
		tba:     make([]int32, 0, g.W*g.L),
		foaCols: make([]int32, g.B),
		foaRows: make([]int32, g.H),
	}
	for ty := 0; ty < g.W; ty++ {
		sy := scale(ty, g.W, g.WPrime)
		for tx := 0; tx < g.L; tx++ {
			fx, fy := g.stripToFrame(scale(tx, g.L, g.LPrime), sy)
			m.tba = append(m.tba, int32(fy*g.C+fx))
		}
	}
	for ox := range m.foaCols {
		m.foaCols[ox] = int32(g.WPrime + scale(ox, g.B, g.BPrime))
	}
	for oy := range m.foaRows {
		m.foaRows[oy] = int32(g.WPrime + scale(oy, g.H, g.HPrime))
	}
	return m
}

// TBAIndex returns the TBA's sampling map: for each of its W×L pixels,
// row-major, the index into a C×R frame's Pix that TBA extraction
// copies. The slice is shared and must not be modified.
func (g Geometry) TBAIndex() []int32 { return g.maps.tba }

// FOAIndex returns the FOA's sampling maps: the frame column of each of
// its B columns and the frame row of each of its H rows. The slices are
// shared and must not be modified.
func (g Geometry) FOAIndex() (cols, rows []int32) { return g.maps.foaCols, g.maps.foaRows }

// TBA extracts the transformed background area of f as a W(height)×L
// (width) pixel grid ready for pyramid reduction. The ⊓-shaped FBA is
// unfolded: the left border column is rotated outward to the left of the
// top bar, the right column to the right (Figure 2), and the resulting
// w'×L' strip is resampled to W×L with nearest-neighbour sampling.
// It panics if f does not match the geometry's frame size.
func (g Geometry) TBA(f *video.Frame) *video.Frame {
	out := video.NewFrame(g.L, g.W)
	g.TBAInto(f, out)
	return out
}

// TBAInto is TBA writing into a caller-provided L×W frame, for
// allocation-free per-frame analysis. It panics on dimension
// mismatches.
func (g Geometry) TBAInto(f, out *video.Frame) {
	g.CheckFrame(f)
	if out.W != g.L || out.H != g.W {
		panic(fmt.Sprintf("region: TBA destination %dx%d, want %dx%d", out.W, out.H, g.L, g.W))
	}
	dst := out.Pix[:len(g.maps.tba)]
	for i, j := range g.maps.tba {
		dst[i] = f.Pix[j]
	}
}

// stripToFrame maps a coordinate (sx, sy) in the conceptual w'×L' strip
// to the frame pixel it came from. Strip row 0 is the outer edge of the
// frame for all three segments, so the unfolding is continuous at the
// two junctions.
func (g Geometry) stripToFrame(sx, sy int) (fx, fy int) {
	switch {
	case sx < g.HPrime:
		// Left border column, rotated outward. Strip x runs from the
		// bottom of the column (sx = 0) up to the junction with the
		// top bar (sx = h'−1 ↔ frame y = w').
		fx = sy
		fy = g.WPrime + (g.HPrime - 1 - sx)
	case sx < g.HPrime+g.C:
		// Top bar, copied directly.
		fx = sx - g.HPrime
		fy = sy
	default:
		// Right border column, rotated outward.
		fx = g.C - 1 - sy
		fy = g.WPrime + (sx - g.HPrime - g.C)
	}
	return fx, fy
}

// FOA extracts the fixed object area of f as a B(width)×H(height) grid
// ready for pyramid reduction: the centre-bottom rectangle spanning
// x ∈ [w', c−w') and y ∈ [w', r), resampled to B×H. It panics if f does
// not match the geometry's frame size.
func (g Geometry) FOA(f *video.Frame) *video.Frame {
	out := video.NewFrame(g.B, g.H)
	g.FOAInto(f, out)
	return out
}

// FOAInto is FOA writing into a caller-provided B×H frame. It panics on
// dimension mismatches.
func (g Geometry) FOAInto(f, out *video.Frame) {
	g.CheckFrame(f)
	if out.W != g.B || out.H != g.H {
		panic(fmt.Sprintf("region: FOA destination %dx%d, want %dx%d", out.W, out.H, g.B, g.H))
	}
	cols, rows := g.FOAIndex()
	for oy, fy := range rows {
		src := f.Pix[int(fy)*g.C:][:g.C]
		dst := out.Pix[oy*g.B:][:len(cols)]
		for ox, fx := range cols {
			dst[ox] = src[fx]
		}
	}
}

// InFBA reports whether frame pixel (x, y) lies inside the ⊓-shaped
// fixed background area.
func (g Geometry) InFBA(x, y int) bool {
	if x < 0 || x >= g.C || y < 0 || y >= g.R {
		return false
	}
	if y < g.WPrime {
		return true // top bar
	}
	return x < g.WPrime || x >= g.C-g.WPrime // side columns
}

// InFOA reports whether frame pixel (x, y) lies inside the fixed object
// area.
func (g Geometry) InFOA(x, y int) bool {
	return x >= g.WPrime && x < g.C-g.WPrime && y >= g.WPrime && y < g.R
}

// scale maps index i in a grid of n cells to the corresponding index in
// a grid of m cells (nearest-neighbour).
func scale(i, n, m int) int {
	if n == 1 {
		return 0
	}
	j := i * m / n
	if j >= m {
		j = m - 1
	}
	return j
}

// CheckFrame panics if f does not have the geometry's frame size.
func (g Geometry) CheckFrame(f *video.Frame) {
	if f.W != g.C || f.H != g.R {
		panic(fmt.Sprintf("region: frame %dx%d does not match geometry %dx%d", f.W, f.H, g.C, g.R))
	}
}

// String summarises the geometry in the paper's notation.
func (g Geometry) String() string {
	return fmt.Sprintf("frame %dx%d: w'=%d b'=%d h'=%d L'=%d → w=%d b=%d h=%d L=%d",
		g.C, g.R, g.WPrime, g.BPrime, g.HPrime, g.LPrime, g.W, g.B, g.H, g.L)
}
