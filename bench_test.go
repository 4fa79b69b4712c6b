// Benchmarks regenerating every table and figure of the paper's
// evaluation (SIGMOD 2000, §5), plus the design ablations listed in
// DESIGN.md §4. Methodology — what is timed, why benchScale is
// reduced, how to read the index-vs-scan ablations — is documented in
// docs/BENCHMARKING.md. System-level performance (ingest, serving,
// the cluster, the segment store) is measured by bench/, the benchmark
// of record.
package videodb_test

import (
	"fmt"
	"testing"

	"videodb/internal/experiments"
	"videodb/internal/rng"
	"videodb/internal/synth"
	"videodb/internal/varindex"
)

// benchScale is the corpus scale factor used by Table 5-class
// benchmarks.
const benchScale = 0.05

func BenchmarkTable1SizeSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Table1(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2RepresentativeFrame(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := experiments.Table2(); len(s) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable3ShotFeatures(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _, _, err := experiments.RunTable3()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 10 {
			b.Fatalf("detected %d shots, want 10", len(rows))
		}
	}
}

func BenchmarkTable4IndexTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clips, err := experiments.RunTable4()
		if err != nil {
			b.Fatal(err)
		}
		if len(clips) != 2 {
			b.Fatal("missing clip")
		}
	}
}

func BenchmarkTable5Corpus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, total, err := experiments.RunTable5(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 22 {
			b.Fatalf("%d rows", len(rows))
		}
		b.ReportMetric(total.Recall(), "recall")
		b.ReportMetric(total.Precision(), "precision")
	}
}

func BenchmarkTable5BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunComparison(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Result.F1(), r.Detector+"-F1")
		}
	}
}

func BenchmarkFigure4StageTelemetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats, err := experiments.RunFigure4(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Pairs == 0 {
			b.Fatal("no pairs")
		}
		b.ReportMetric(float64(stats.BySign)/float64(stats.Pairs), "stage1-share")
	}
}

func BenchmarkFigure6SceneTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, groups, err := experiments.RunFigure6()
		if err != nil {
			b.Fatal(err)
		}
		if len(groups) != 3 {
			b.Fatalf("%d level-1 groups, want 3", len(groups))
		}
	}
}

func BenchmarkFigure7FriendsTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rendering, err := experiments.RunFigure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(rendering) == 0 {
			b.Fatal("empty tree")
		}
	}
}

func benchRetrieval(b *testing.B, class synth.Class) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunRetrieval(class, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HitRate(), "same-class-rate")
	}
}

func BenchmarkFigure8CloseupRetrieval(b *testing.B) { benchRetrieval(b, synth.ClassCloseup) }
func BenchmarkFigure9TwoShotRetrieval(b *testing.B) { benchRetrieval(b, synth.ClassTwoShot) }
func BenchmarkFigure10ActionRetrieval(b *testing.B) { benchRetrieval(b, synth.ClassAction) }

func BenchmarkAblationBorderFraction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationBorder([]float64{0.05, 0.10, 0.20}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			_ = r
		}
	}
}

func BenchmarkAblationExtendedModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationExtended([]float64{15})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.SameLocationRate, fmt.Sprintf("same-loc@γ=%.0f", r.Gamma))
		}
	}
}

func BenchmarkAblationFastSegmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationFast([]int{4, 8}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkAblationBrowsingCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunBrowsingCost(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 22 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkAblationZoomLimitation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationZoom([]float64{1.0, 1.05})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			b.ReportMetric(r.Result.Precision(), fmt.Sprintf("precision@%.2f", r.Rate))
		}
	}
}

func BenchmarkAblationTreeQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunTreeQuality(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 22 {
			b.Fatal("missing rows")
		}
	}
}

func BenchmarkAblationQueryTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RunAblationTolerance([]float64{0.5, 1.0, 2.0})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatal("missing rows")
		}
	}
}

// BenchmarkAblationIndexedSearch and BenchmarkAblationLinearSearch
// quantify the Dv-sorted index against a full scan at database scale
// (ablation A4 in DESIGN.md).
func buildBigIndex(n int) *varindex.Index {
	ix := varindex.New()
	r := rng.New(1)
	for i := 0; i < n; i++ {
		ix.Add(varindex.Entry{
			Clip: "corpus", Shot: i,
			VarBA: r.Float64Range(0, 60), VarOA: r.Float64Range(0, 60),
		})
	}
	ix.Build() // build-at-publish: freeze the index outside the timed loop
	return ix
}

func BenchmarkAblationIndexedSearch100k(b *testing.B) {
	ix := buildBigIndex(100_000)
	q := varindex.Query{VarBA: 25, VarOA: 4}
	opt := varindex.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLinearSearch100k(b *testing.B) {
	ix := buildBigIndex(100_000)
	q := varindex.Query{VarBA: 25, VarOA: 4}
	opt := varindex.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchLinear(q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// Selective-query variants (α = β = 0.1; see docs/BENCHMARKING.md).
func BenchmarkAblationIndexedSearchSelective100k(b *testing.B) {
	ix := buildBigIndex(100_000)
	q := varindex.Query{VarBA: 25, VarOA: 4}
	opt := varindex.Options{Alpha: 0.1, Beta: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLinearSearchSelective100k(b *testing.B) {
	ix := buildBigIndex(100_000)
	q := varindex.Query{VarBA: 25, VarOA: 4}
	opt := varindex.Options{Alpha: 0.1, Beta: 0.1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchLinear(q, opt); err != nil {
			b.Fatal(err)
		}
	}
}
