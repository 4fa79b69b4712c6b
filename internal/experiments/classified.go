package experiments

import (
	"fmt"

	"videodb/internal/evalmeasure"
	"videodb/internal/sbd"
	"videodb/internal/video"
)

// collapsedDetector adapts DetectClassified (which merges runs of
// adjacent raw boundaries into single gradual transitions) to the
// Detector interface, so the corpus harness can score the collapsed
// boundary set.
type collapsedDetector struct {
	inner *sbd.CameraTracking
}

// Name implements sbd.Detector.
func (d *collapsedDetector) Name() string { return "camera-tracking-collapsed" }

// Detect implements sbd.Detector.
func (d *collapsedDetector) Detect(c *video.Clip) ([]int, error) {
	bounds, err := d.inner.DetectClassified(c)
	if err != nil {
		return nil, err
	}
	out := make([]int, len(bounds))
	for i, b := range bounds {
		out[i] = b.Frame
	}
	return out, nil
}

// ClassifiedRow compares raw and collapsed boundary sets corpus-wide.
type ClassifiedRow struct {
	// Detector names the configuration.
	Detector string
	// Result is corpus-level accuracy.
	Result evalmeasure.Result
}

// RunAblationClassified evaluates whether collapsing adjacent boundary
// runs (the gradual-transition merging of DetectClassified) helps or
// hurts corpus-wide accuracy. The risk is merging two genuine cuts 1–2
// frames apart (rapid-cut material); the gain is deduplicating multiple
// firings inside one strong dissolve.
func RunAblationClassified(scale float64) ([]ClassifiedRow, error) {
	raw, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	collapsed := &collapsedDetector{inner: raw}

	var rows []ClassifiedRow
	for _, det := range []sbd.Detector{raw, collapsed} {
		_, total, err := runCorpus(scale, det)
		if err != nil {
			return nil, err
		}
		rows = append(rows, ClassifiedRow{Detector: det.Name(), Result: total})
	}
	return rows, nil
}

// FormatAblationClassified renders the comparison.
func FormatAblationClassified(rows []ClassifiedRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Detector,
			fmt.Sprintf("%.2f", r.Result.Recall()),
			fmt.Sprintf("%.2f", r.Result.Precision()),
			fmt.Sprintf("%.2f", r.Result.F1()),
		})
	}
	return table([]string{"Boundary set", "Recall", "Precision", "F1"}, out)
}
