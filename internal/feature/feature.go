// Package feature computes the paper's per-frame and per-shot feature
// values: the background sign Sign^BA, the object-area sign Sign^OA, the
// background signature (§2.1–2.2), and the per-shot statistical
// variances Var^BA and Var^OA (Eqs. 3–6) that form the two-value feature
// vector of the variance-based similarity model (§4.1).
package feature

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"videodb/internal/pyramid"
	"videodb/internal/region"
	"videodb/internal/video"
)

// FrameFeature holds the analysis result for one video frame.
type FrameFeature struct {
	// SignBA is the single-pixel reduction of the transformed
	// background area.
	SignBA video.Pixel
	// SignOA is the single-pixel reduction of the fixed object area.
	SignOA video.Pixel
	// Signature is the one-line reduction of the TBA (length g.L); it
	// feeds SBD stages 2 and 3.
	Signature []video.Pixel
}

// Analyzer extracts frame features for a fixed frame geometry. It is
// safe for concurrent use: per-goroutine reducers are drawn from an
// internal pool.
type Analyzer struct {
	geom region.Geometry
	pool sync.Pool
}

// NewAnalyzer returns an analyzer for c×r frames with the default 10%
// border.
func NewAnalyzer(c, r int) (*Analyzer, error) {
	g, err := region.New(c, r)
	if err != nil {
		return nil, err
	}
	return NewAnalyzerWithGeometry(g), nil
}

// NewAnalyzerWithGeometry returns an analyzer using a precomputed
// geometry (for the border-fraction ablation).
func NewAnalyzerWithGeometry(g region.Geometry) *Analyzer {
	a := &Analyzer{geom: g}
	// The TBA and the FOA take turns in one reducer: size it for the
	// larger of the two.
	w, h := g.L, g.W
	if g.B*g.H > w*h {
		w, h = g.B, g.H
	}
	a.pool.New = func() any { return pyramid.NewReducer(w, h) }
	return a
}

// Geometry returns the region geometry the analyzer uses.
func (a *Analyzer) Geometry() region.Geometry { return a.geom }

// Analyze computes the frame's features — the pure per-frame reduce
// step of the ingest pipeline: FBA/FOA extraction, TBA transform, then
// the Gaussian-pyramid reduction to signature and signs. Each region is
// gathered through the geometry's sampling maps straight into the
// reducer's plane of wide pixels, which is then reduced row by row. It
// depends on no other frame, so frames may be analyzed in any order or
// in parallel. It panics if f does not match the analyzer's frame size.
// Only the returned Signature slice is freshly allocated; all working
// memory comes from the analyzer's pool.
func (a *Analyzer) Analyze(f *video.Frame) FrameFeature {
	g := a.geom
	g.CheckFrame(f)
	red := a.pool.Get().(*pyramid.Reducer)
	defer a.pool.Put(red)

	tba := g.TBAIndex()
	p := red.Plane(g.L, g.W)[:len(tba)]
	for i, j := range tba {
		p[i] = pyramid.Widen(f.Pix[j])
	}
	sig := make([]video.Pixel, g.L)
	signBA := red.ReducePlane(g.L, g.W, sig)

	cols, rows := g.FOAIndex()
	p = red.Plane(g.B, g.H)
	for y, fy := range rows {
		src := f.Pix[int(fy)*g.C:][:g.C]
		dst := p[y*g.B:][:len(cols)]
		for x, fx := range cols {
			dst[x] = pyramid.Widen(src[fx])
		}
	}
	signOA := red.ReducePlane(g.B, g.H, nil)

	return FrameFeature{SignBA: signBA, SignOA: signOA, Signature: sig}
}

// AnalyzeClip analyzes every frame of a clip, returning one FrameFeature
// per frame.
func (a *Analyzer) AnalyzeClip(c *video.Clip) []FrameFeature {
	out := make([]FrameFeature, len(c.Frames))
	for i, f := range c.Frames {
		out[i] = a.Analyze(f)
	}
	return out
}

// AnalyzeClipStream analyzes a clip's frames on a fixed set of workers
// (0 = GOMAXPROCS; never more than one per frame) and delivers every
// frame's feature to yield strictly in frame order, from the caller's
// goroutine. This is the fan-out half of the two-phase ingest pipeline:
// the embarrassingly parallel per-frame reduction runs on the workers
// while the caller's yield — typically the sequential three-stage
// shot-boundary test, which compares consecutive frames — consumes an
// ordered stream, so results are identical to AnalyzeClip regardless
// of worker count.
//
// Worker w analyzes frames w, w+workers, w+2·workers, … into a lane of
// its own, and frame i is read from lane i mod workers, so the order
// needs no reordering. Cancelling ctx stops the workers promptly and
// returns ctx.Err(); the call returns only after every worker has
// exited.
func (a *Analyzer) AnalyzeClipStream(ctx context.Context, c *video.Clip, workers int, yield func(i int, ff FrameFeature)) error {
	n := len(c.Frames)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)

	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()

	lanes := make([]chan FrameFeature, workers)
	for w := range lanes {
		// Two frames a lane let a worker finish its next frame while
		// the consumer drains the other lanes, and hold memory at
		// 2·workers frames whatever the clip's length.
		lane := make(chan FrameFeature, 2)
		lanes[w] = lane
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				select {
				case lane <- a.Analyze(c.Frames[i]):
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	for i := range n {
		select {
		case ff := <-lanes[i%workers]:
			yield(i, ff)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// ShotFeature is the per-shot feature vector of §4.1: the variances of
// the background and object signs across the shot's frames, plus the
// derived similarity coordinate Dv = sqrt(VarBA) − sqrt(VarOA) (§4.2).
type ShotFeature struct {
	// Start and End are the first and last frame indices of the shot
	// (inclusive), 0-based within the analyzed clip.
	Start, End int
	// VarBA and VarOA are the statistical variances of Sign^BA and
	// Sign^OA over the shot (Eqs. 3 and 5), averaged over the three
	// colour channels.
	VarBA, VarOA float64
	// MeanBA and MeanOA are the per-channel mean signs (Eqs. 4 and 6).
	MeanBA, MeanOA [3]float64
}

// Dv returns sqrt(VarBA) − sqrt(VarOA), the primary index coordinate of
// the similarity model (§4.2).
func (s ShotFeature) Dv() float64 {
	return math.Sqrt(s.VarBA) - math.Sqrt(s.VarOA)
}

// Frames returns the number of frames in the shot.
func (s ShotFeature) Frames() int { return s.End - s.Start + 1 }

// String formats the feature as an index-table row (Table 4 layout).
func (s ShotFeature) String() string {
	return fmt.Sprintf("frames %d-%d VarBA=%.2f VarOA=%.2f Dv=%.2f", s.Start, s.End, s.VarBA, s.VarOA, s.Dv())
}

// channelsOf splits a pixel into float channels.
func channelsOf(p video.Pixel) [3]float64 {
	return [3]float64{float64(p.R), float64(p.G), float64(p.B)}
}

// meanAndVariance computes the per-channel mean and the channel-averaged
// sample variance of the signs sign picks out of feats, following
// Eqs. 3–4: the mean divides by the frame count (l−k+1) while the
// variance divides by l−k. A single-sign sequence has variance 0 by
// definition (DESIGN.md).
func meanAndVariance(feats []FrameFeature, sign func(*FrameFeature) video.Pixel) (mean [3]float64, variance float64) {
	n := len(feats)
	if n == 0 {
		return mean, 0
	}
	for i := range feats {
		c := channelsOf(sign(&feats[i]))
		for j := 0; j < 3; j++ {
			mean[j] += c[j]
		}
	}
	for j := 0; j < 3; j++ {
		mean[j] /= float64(n)
	}
	if n == 1 {
		return mean, 0
	}
	var sum float64
	for i := range feats {
		c := channelsOf(sign(&feats[i]))
		for j := 0; j < 3; j++ {
			d := c[j] - mean[j]
			sum += d * d
		}
	}
	// Per-channel sample variance (divide by l−k = n−1), averaged over
	// the three channels.
	return mean, sum / float64(n-1) / 3
}

// ShotFeatureFromFrames computes the ShotFeature for the frame range
// [start, end] (inclusive) over precomputed frame features. It panics if
// the range is empty or out of bounds.
func ShotFeatureFromFrames(feats []FrameFeature, start, end int) ShotFeature {
	if start < 0 || end >= len(feats) || start > end {
		panic(fmt.Sprintf("feature: invalid shot range [%d,%d] over %d frames", start, end, len(feats)))
	}
	shot := feats[start : end+1]
	sf := ShotFeature{Start: start, End: end}
	sf.MeanBA, sf.VarBA = meanAndVariance(shot, func(f *FrameFeature) video.Pixel { return f.SignBA })
	sf.MeanOA, sf.VarOA = meanAndVariance(shot, func(f *FrameFeature) video.Pixel { return f.SignOA })
	return sf
}

// LongestSignRun returns the 0-based frame index (relative to the start
// of feats slice indices given) beginning the longest run of consecutive
// frames whose Sign^BA values are identical, along with the run length.
// Ties go to the earliest run, matching the representative-frame rule of
// §3.1 step 6 and Table 2. It panics on an empty range.
func LongestSignRun(feats []FrameFeature, start, end int) (frame, length int) {
	if start < 0 || end >= len(feats) || start > end {
		panic(fmt.Sprintf("feature: invalid range [%d,%d] over %d frames", start, end, len(feats)))
	}
	bestStart, bestLen := start, 1
	runStart, runLen := start, 1
	for i := start + 1; i <= end; i++ {
		if feats[i].SignBA == feats[i-1].SignBA {
			runLen++
		} else {
			runStart, runLen = i, 1
		}
		if runLen > bestLen {
			bestStart, bestLen = runStart, runLen
		}
	}
	return bestStart, bestLen
}
