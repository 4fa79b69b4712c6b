package experiments

import (
	"fmt"

	"videodb/internal/evalmeasure"
	"videodb/internal/rng"
	"videodb/internal/sbd"
	"videodb/internal/synth"
	"videodb/internal/video"
)

// ZoomRow is one result of the zoom limitation study. The paper's FBA
// argument (§2.1) covers horizontal, vertical and diagonal camera
// motion; zooming changes the background without translating it, so
// signature shifting cannot track it. This study measures how the
// detector degrades as zoom speed grows — an honest negative result the
// paper does not report.
type ZoomRow struct {
	// Rate is the per-frame magnification factor (1.0 = no zoom).
	Rate float64
	// Result is detection accuracy over the zoom corpus.
	Result evalmeasure.Result
}

// RunAblationZoom builds clips whose shots zoom at each rate (cuts
// between distinct locations are the only true boundaries) and
// evaluates the camera-tracking detector.
func RunAblationZoom(rates []float64) ([]ZoomRow, error) {
	det, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	var rows []ZoomRow
	for _, rate := range rates {
		clip, gt, err := zoomClip(rate)
		if err != nil {
			return nil, err
		}
		bounds, err := det.Detect(clip)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ZoomRow{
			Rate:   rate,
			Result: evalmeasure.Evaluate(gt.Boundaries, bounds, evalmeasure.DefaultTolerance),
		})
	}
	return rows, nil
}

// zoomClip builds a 12-shot clip over distinct locations where every
// shot zooms in at the given per-frame rate.
func zoomClip(rate float64) (*video.Clip, synth.GroundTruth, error) {
	r := rng.New(771)
	spec := synth.ClipSpec{Name: fmt.Sprintf("zoom-%.3f", rate), W: 160, H: 120, FPS: 3, Seed: 88}
	const shots = 12
	for i := 0; i < shots; i++ {
		tp := synth.DefaultTextureParams()
		tp.BaseColor = palettePick(r, i)
		spec.Locations = append(spec.Locations, tp)
		spec.Shots = append(spec.Shots, synth.ShotSpec{
			Location: i,
			Frames:   12,
			Camera: synth.Camera{
				X: r.Float64Range(100, 300), Y: r.Float64Range(50, 150),
				Zoom: 1, ZoomRate: rate, Jitter: 0.2,
			},
			NoiseSigma: 1.5,
			FlashAt:    -1,
		})
	}
	return synth.Generate(spec)
}

// palettePick cycles well-separated base colours so cuts are clean.
func palettePick(r *rng.RNG, i int) video.Pixel {
	colors := []video.Pixel{
		video.RGB(160, 120, 80), video.RGB(70, 100, 150), video.RGB(80, 150, 80),
		video.RGB(170, 170, 180), video.RGB(60, 70, 100), video.RGB(150, 90, 130),
	}
	base := colors[i%len(colors)]
	// Small per-location variation keeps textures distinct.
	return video.RGB(jitter8(r, base.R), jitter8(r, base.G), jitter8(r, base.B))
}

func jitter8(r *rng.RNG, v uint8) uint8 {
	n := int(v) + r.Intn(11) - 5
	if n < 0 {
		n = 0
	}
	if n > 255 {
		n = 255
	}
	return uint8(n)
}

// FormatAblationZoom renders the zoom study.
func FormatAblationZoom(rows []ZoomRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.3f", r.Rate),
			fmt.Sprintf("%.2f", r.Result.Recall()),
			fmt.Sprintf("%.2f", r.Result.Precision()),
			fmt.Sprintf("%d", r.Result.Detected-r.Result.Correct),
		})
	}
	return table([]string{"Zoom rate/frame", "Recall", "Precision", "False boundaries"}, out)
}
