package experiments

import (
	"fmt"
	"time"

	"videodb/internal/evalmeasure"
	"videodb/internal/sbd"
	"videodb/internal/video"
)

// FastRow compares the full camera-tracking pipeline with the
// skip-and-refine accelerated segmenter (§6 future work: "speed up the
// video data segmentation process") at one stride.
type FastRow struct {
	// Detector names the configuration ("full" or "fast/<stride>").
	Detector string
	// Result is corpus-level accuracy.
	Result evalmeasure.Result
	// Elapsed is the wall-clock detection time over the corpus
	// (excluding synthesis).
	Elapsed time.Duration
	// FramesAnalyzedFrac is the fraction of frames whose features were
	// extracted (1.0 for the full pipeline).
	FramesAnalyzedFrac float64
}

// RunAblationFast evaluates the full detector and fast detectors at the
// given strides over the corpus at the given scale.
func RunAblationFast(strides []int, scale float64) ([]FastRow, error) {
	// Synthesise the corpus once; time only detection.
	defs := Table5Corpus()
	clips := make([]builtClip, 0, len(defs))
	for _, def := range defs {
		clip, gt, err := def.Build(scale)
		if err != nil {
			return nil, err
		}
		clips = append(clips, builtClip{clip: clip, truth: gt.Boundaries})
	}

	var rows []FastRow
	full, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var total evalmeasure.Result
	for _, bc := range clips {
		bounds, err := full.Detect(bc.clip)
		if err != nil {
			return nil, err
		}
		total.Add(evalmeasure.Evaluate(bc.truth, bounds, evalmeasure.DefaultTolerance))
	}
	rows = append(rows, FastRow{
		Detector: "full", Result: total, Elapsed: time.Since(start), FramesAnalyzedFrac: 1,
	})

	for _, stride := range strides {
		fast, err := sbd.NewFast(sbd.DefaultConfig(), stride, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var total evalmeasure.Result
		analyzed, frames := 0, 0
		for _, bc := range clips {
			bounds, stats, err := fast.DetectWithStats(bc.clip)
			if err != nil {
				return nil, err
			}
			total.Add(evalmeasure.Evaluate(bc.truth, bounds, evalmeasure.DefaultTolerance))
			analyzed += stats.FramesAnalyzed
			frames += stats.FramesTotal
		}
		row := FastRow{Detector: fast.Name(), Result: total, Elapsed: time.Since(start)}
		if frames > 0 {
			row.FramesAnalyzedFrac = float64(analyzed) / float64(frames)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// builtClip pairs a synthesised clip with its true boundaries.
type builtClip struct {
	clip  *video.Clip
	truth []int
}

// FormatAblationFast renders the speed/accuracy trade-off.
func FormatAblationFast(rows []FastRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Detector,
			fmt.Sprintf("%.2f", r.Result.Recall()),
			fmt.Sprintf("%.2f", r.Result.Precision()),
			fmt.Sprintf("%.0f%%", 100*r.FramesAnalyzedFrac),
			r.Elapsed.Round(time.Millisecond).String(),
		})
	}
	return table([]string{"Detector", "Recall", "Precision", "Frames analyzed", "Detection time"}, out)
}
