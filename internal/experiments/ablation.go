package experiments

import (
	"fmt"

	"videodb/internal/evalmeasure"
	"videodb/internal/feature"
	"videodb/internal/region"
	"videodb/internal/sbd"
	"videodb/internal/varindex"
)

// BorderRow is one result of the w' sensitivity ablation (the paper
// fixes w' at 10% of the frame width empirically; this measures what
// other fractions would have done).
type BorderRow struct {
	// Frac is the border fraction tested.
	Frac float64
	// Result is the corpus-level detection accuracy.
	Result evalmeasure.Result
}

// RunAblationBorder evaluates the camera-tracking detector with
// different FBA border fractions over the corpus at the given scale.
func RunAblationBorder(fracs []float64, scale float64) ([]BorderRow, error) {
	var out []BorderRow
	for _, frac := range fracs {
		geom, err := region.NewWithBorderFrac(160, 120, frac)
		if err != nil {
			return nil, fmt.Errorf("border %v: %w", frac, err)
		}
		an := feature.NewAnalyzerWithGeometry(geom)
		det, err := sbd.NewCameraTracking(sbd.DefaultConfig(), an)
		if err != nil {
			return nil, err
		}
		_, total, err := runCorpus(scale, det)
		if err != nil {
			return nil, err
		}
		out = append(out, BorderRow{Frac: frac, Result: total})
	}
	return out, nil
}

// FormatAblationBorder renders the border ablation.
func FormatAblationBorder(rows []BorderRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.0f%%", r.Frac*100),
			fmt.Sprintf("%.2f", r.Result.Recall()),
			fmt.Sprintf("%.2f", r.Result.Precision()),
			fmt.Sprintf("%.2f", r.Result.F1()),
		})
	}
	return table([]string{"Border w'", "Recall", "Precision", "F1"}, out)
}

// ToleranceRow is one result of the α/β query-tolerance ablation.
type ToleranceRow struct {
	// Alpha and Beta are the tolerances tested.
	Alpha, Beta float64
	// HitRate is the mean same-class fraction over the three classes.
	HitRate float64
	// MeanResults is the mean number of shots a query returned.
	MeanResults float64
}

// RunAblationTolerance sweeps the similarity tolerances and measures
// retrieval hit rate and result-set size. The paper sets α = β = 1.0;
// the sweep shows the selectivity/recall trade-off around that point.
func RunAblationTolerance(values []float64) ([]ToleranceRow, error) {
	rdb, err := buildRetrievalDB()
	if err != nil {
		return nil, err
	}
	var out []ToleranceRow
	for _, v := range values {
		opt := varindex.Options{Alpha: v, Beta: v}
		row := ToleranceRow{Alpha: v, Beta: v}
		queries, retrieved, same := 0, 0, 0
		for _, clipName := range rdb.db.Clips() {
			classes := rdb.classes[clipName]
			rec, _ := rdb.db.Clip(clipName)
			for shot, class := range classes {
				if class == 0 { // skip ClassOther queries
					continue
				}
				sf := rec.Shots[shot].Feature
				q := varindex.Query{VarBA: sf.VarBA, VarOA: sf.VarOA}
				matches, err := rdb.db.QueryWithOptions(q, opt)
				if err != nil {
					return nil, err
				}
				queries++
				for _, m := range matches {
					if m.Entry.Clip == clipName && m.Entry.Shot == shot {
						continue // the query shot itself
					}
					retrieved++
					if rdb.classes[m.Entry.Clip][m.Entry.Shot] == class {
						same++
					}
				}
			}
		}
		if retrieved > 0 {
			row.HitRate = float64(same) / float64(retrieved)
		} else {
			row.HitRate = 1
		}
		if queries > 0 {
			row.MeanResults = float64(retrieved) / float64(queries)
		}
		out = append(out, row)
	}
	return out, nil
}

// FormatAblationTolerance renders the tolerance sweep.
func FormatAblationTolerance(rows []ToleranceRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("%.2f", r.Alpha),
			fmt.Sprintf("%.0f%%", 100*r.HitRate),
			fmt.Sprintf("%.1f", r.MeanResults),
		})
	}
	return table([]string{"α = β", "Same-class rate", "Mean results/query"}, out)
}
