// Package ecrsbd implements the edge-change-ratio shot boundary
// detection baseline of Zabih, Miller and Mai (the paper's reference
// [7]). Lienhart's survey (reference [2]) notes this family needs at
// least six threshold values to be chosen properly; the Config exposes
// them all.
//
// Per frame, a binary edge map is computed with a Sobel operator on the
// luminance channel. For each consecutive pair, entering edges (edge
// pixels of the new frame not near an old edge) and exiting edges (edge
// pixels of the old frame not near a new edge) are counted after
// dilating the opposing map; the edge change ratio is the larger of the
// two fractions. Cuts produce an ECR spike above the ratio threshold.
package ecrsbd

import (
	"fmt"

	"videodb/internal/video"
)

// Config holds the six tunable parameters of the detector.
type Config struct {
	// EdgeThreshold is the minimum Sobel gradient magnitude for a pixel
	// to count as an edge.
	EdgeThreshold int
	// DilateRadius is the Chebyshev radius used when testing whether an
	// edge pixel has a counterpart in the other frame.
	DilateRadius int
	// ECRThreshold declares a boundary when the edge change ratio
	// exceeds it.
	ECRThreshold float64
	// MinEdgePixels skips pairs whose frames have fewer edge pixels
	// (ECR is unstable on near-empty edge maps).
	MinEdgePixels int
	// SpikeFactor requires the ECR at a boundary to exceed the mean of
	// the neighbouring window by this factor (spike detection).
	SpikeFactor float64
	// SpikeWindow is the half-width of the neighbourhood used for the
	// spike test, in frames.
	SpikeWindow int
}

// DefaultConfig returns parameters calibrated on the synthetic corpus.
func DefaultConfig() Config {
	return Config{
		EdgeThreshold: 96,
		DilateRadius:  2,
		ECRThreshold:  0.5,
		MinEdgePixels: 40,
		SpikeFactor:   1.6,
		SpikeWindow:   3,
	}
}

// Validate reports the first invalid parameter, if any.
func (c Config) Validate() error {
	if c.EdgeThreshold <= 0 || c.EdgeThreshold > 1020 {
		return fmt.Errorf("ecrsbd: EdgeThreshold %d outside (0,1020]", c.EdgeThreshold)
	}
	if c.DilateRadius < 0 || c.DilateRadius > 16 {
		return fmt.Errorf("ecrsbd: DilateRadius %d outside [0,16]", c.DilateRadius)
	}
	if c.ECRThreshold <= 0 || c.ECRThreshold > 1 {
		return fmt.Errorf("ecrsbd: ECRThreshold %v outside (0,1]", c.ECRThreshold)
	}
	if c.MinEdgePixels < 0 {
		return fmt.Errorf("ecrsbd: MinEdgePixels %d negative", c.MinEdgePixels)
	}
	if c.SpikeFactor < 1 {
		return fmt.Errorf("ecrsbd: SpikeFactor %v below 1", c.SpikeFactor)
	}
	if c.SpikeWindow < 0 {
		return fmt.Errorf("ecrsbd: SpikeWindow %d negative", c.SpikeWindow)
	}
	return nil
}

// Detector is the ECR baseline. It implements sbd.Detector.
type Detector struct {
	cfg Config
}

// New returns a detector with the given parameters.
func New(cfg Config) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Detector{cfg: cfg}, nil
}

// Name implements sbd.Detector.
func (d *Detector) Name() string { return "edge-change-ratio" }

// EdgeMap computes a binary edge map of f: true where the Sobel gradient
// magnitude (|gx| + |gy| on luminance) exceeds threshold.
func EdgeMap(f *video.Frame, threshold int) []bool {
	luma := make([]int, len(f.Pix))
	for i, p := range f.Pix {
		luma[i] = p.Luma()
	}
	at := func(x, y int) int {
		if x < 0 {
			x = 0
		} else if x >= f.W {
			x = f.W - 1
		}
		if y < 0 {
			y = 0
		} else if y >= f.H {
			y = f.H - 1
		}
		return luma[y*f.W+x]
	}
	edges := make([]bool, len(f.Pix))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			gx := -at(x-1, y-1) - 2*at(x-1, y) - at(x-1, y+1) +
				at(x+1, y-1) + 2*at(x+1, y) + at(x+1, y+1)
			gy := -at(x-1, y-1) - 2*at(x, y-1) - at(x+1, y-1) +
				at(x-1, y+1) + 2*at(x, y+1) + at(x+1, y+1)
			if gx < 0 {
				gx = -gx
			}
			if gy < 0 {
				gy = -gy
			}
			if gx+gy > threshold {
				edges[y*f.W+x] = true
			}
		}
	}
	return edges
}

// Dilate expands a binary map by the given Chebyshev radius.
func Dilate(edges []bool, w, h, radius int) []bool {
	if radius == 0 {
		out := make([]bool, len(edges))
		copy(out, edges)
		return out
	}
	out := make([]bool, len(edges))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if !edges[y*w+x] {
				continue
			}
			for dy := -radius; dy <= radius; dy++ {
				yy := y + dy
				if yy < 0 || yy >= h {
					continue
				}
				for dx := -radius; dx <= radius; dx++ {
					xx := x + dx
					if xx < 0 || xx >= w {
						continue
					}
					out[yy*w+xx] = true
				}
			}
		}
	}
	return out
}

// ECR computes the edge change ratio between two frames' edge maps:
// max(fraction of new edges entering, fraction of old edges exiting).
// It also returns the edge pixel counts of both maps.
func ECR(prev, cur []bool, w, h, radius int) (ecr float64, prevCount, curCount int) {
	prevDil := Dilate(prev, w, h, radius)
	curDil := Dilate(cur, w, h, radius)
	var in, out int
	for i := range cur {
		if cur[i] {
			curCount++
			if !prevDil[i] {
				in++
			}
		}
		if prev[i] {
			prevCount++
			if !curDil[i] {
				out++
			}
		}
	}
	var rIn, rOut float64
	if curCount > 0 {
		rIn = float64(in) / float64(curCount)
	}
	if prevCount > 0 {
		rOut = float64(out) / float64(prevCount)
	}
	if rIn > rOut {
		return rIn, prevCount, curCount
	}
	return rOut, prevCount, curCount
}

// Reduce is the detector's pure per-frame reduction step: the binary
// edge map of one frame under the configured threshold. It depends on
// no other frame, so callers may fan it out across a worker pool and
// keep only the pairwise Compare sequential.
func (d *Detector) Reduce(f *video.Frame) []bool {
	return EdgeMap(f, d.cfg.EdgeThreshold)
}

// Compare is the pairwise step over two precomputed edge maps: the edge
// change ratio, forced to 0 when either map has too few edge pixels for
// a stable ratio.
func (d *Detector) Compare(prev, cur []bool, w, h int) float64 {
	ecr, pc, cc := ECR(prev, cur, w, h, d.cfg.DilateRadius)
	if pc < d.cfg.MinEdgePixels || cc < d.cfg.MinEdgePixels {
		return 0
	}
	return ecr
}

// Series computes the per-pair ECR values for a clip.
func (d *Detector) Series(c *video.Clip) []float64 {
	w, h := c.Frames[0].W, c.Frames[0].H
	series := make([]float64, len(c.Frames)-1)
	prev := d.Reduce(c.Frames[0])
	for i, f := range c.Frames[1:] {
		cur := d.Reduce(f)
		series[i] = d.Compare(prev, cur, w, h)
		prev = cur
	}
	return series
}

// Detect implements sbd.Detector: a boundary is declared at frame i when
// the ECR between frames i−1 and i exceeds ECRThreshold and forms a
// local spike relative to its neighbourhood.
func (d *Detector) Detect(c *video.Clip) ([]int, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if len(c.Frames) < 2 {
		return nil, nil
	}
	series := d.Series(c)
	var bounds []int
	for i, ecr := range series {
		if ecr <= d.cfg.ECRThreshold {
			continue
		}
		if d.cfg.SpikeWindow > 0 && !d.isSpike(series, i) {
			continue
		}
		bounds = append(bounds, i+1)
	}
	return bounds, nil
}

// isSpike reports whether series[i] exceeds SpikeFactor times the mean
// of its neighbourhood (excluding itself).
func (d *Detector) isSpike(series []float64, i int) bool {
	lo, hi := i-d.cfg.SpikeWindow, i+d.cfg.SpikeWindow
	if lo < 0 {
		lo = 0
	}
	if hi >= len(series) {
		hi = len(series) - 1
	}
	var sum float64
	n := 0
	for j := lo; j <= hi; j++ {
		if j == i {
			continue
		}
		sum += series[j]
		n++
	}
	if n == 0 {
		return true
	}
	mean := sum / float64(n)
	return series[i] > d.cfg.SpikeFactor*mean
}
