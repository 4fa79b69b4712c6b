package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"videodb/internal/core"
	"videodb/internal/ecrsbd"
	"videodb/internal/evalmeasure"
	"videodb/internal/feature"
	"videodb/internal/histsbd"
	"videodb/internal/pixelsbd"
	"videodb/internal/pyramid"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/synth"
	"videodb/internal/video"
)

// table renders rows as an aligned text table.
func table(header []string, rows [][]string) string {
	var sb strings.Builder
	w := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return sb.String()
}

// Table1 regenerates the size-set approximation table (paper Table 1):
// ranges of raw dimensions and the size-set value each maps to.
func Table1() string {
	rows := [][]string{}
	lo := 1
	for j := 1; pyramid.SizeAt(j) <= 125; j++ {
		s := pyramid.SizeAt(j)
		hi := lo
		for pyramid.Nearest(hi+1) == s {
			hi++
		}
		rows = append(rows, []string{fmt.Sprintf("%d..%d", lo, hi), fmt.Sprintf("%d", s)})
		lo = hi + 1
	}
	return table([]string{"h',b',w' or L'", "h, b, w or L"}, rows)
}

// Table2 regenerates the representative-frame example (paper Table 2):
// the 20-frame shot with five sign runs, and the frame the rule picks.
func Table2() string {
	type run struct {
		r, g, b uint8
		n       int
	}
	runs := []run{
		{219, 152, 142, 6}, {226, 164, 172, 2}, {213, 149, 134, 4},
		{200, 137, 123, 2}, {228, 160, 149, 6},
	}
	var feats []feature.FrameFeature
	rows := [][]string{}
	frameNo := 1
	for _, ru := range runs {
		for i := 0; i < ru.n; i++ {
			feats = append(feats, feature.FrameFeature{SignBA: video.RGB(ru.r, ru.g, ru.b)})
			rows = append(rows, []string{
				fmt.Sprintf("No.%d", frameNo),
				fmt.Sprintf("%d", ru.r), fmt.Sprintf("%d", ru.g), fmt.Sprintf("%d", ru.b),
			})
			frameNo++
		}
	}
	rep, length := feature.LongestSignRun(feats, 0, len(feats)-1)
	out := table([]string{"Frame", "Red", "Green", "Blue"}, rows)
	return out + fmt.Sprintf("\nRepresentative frame: No.%d (earliest longest run, length %d)\n", rep+1, length)
}

// Table3Row is one row of the regenerated Table 3: a detected shot of
// the Figure 5 clip with its feature vector.
type Table3Row struct {
	Shot       int
	Start, End int
	VarBA      float64
	VarOA      float64
	Dv         float64
}

// RunTable3 segments the Figure 5 clip and computes per-shot features
// (paper Table 3). It also returns the detected boundaries and the
// ground truth for verification.
func RunTable3() ([]Table3Row, []int, synth.GroundTruth, error) {
	clip, gt, err := synth.Generate(Figure5Spec())
	if err != nil {
		return nil, nil, gt, err
	}
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return nil, nil, gt, err
	}
	rec, err := db.Ingest(clip)
	if err != nil {
		return nil, nil, gt, err
	}
	rows := make([]Table3Row, len(rec.Shots))
	bounds := make([]int, 0, len(rec.Shots)-1)
	for i, sr := range rec.Shots {
		rows[i] = Table3Row{
			Shot: i + 1, Start: sr.Shot.Start + 1, End: sr.Shot.End + 1,
			VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA, Dv: sr.Feature.Dv(),
		}
		if i > 0 {
			bounds = append(bounds, sr.Shot.Start)
		}
	}
	return rows, bounds, gt, nil
}

// FormatTable3 renders Table 3 rows.
func FormatTable3(rows []Table3Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			fmt.Sprintf("#%d", r.Shot),
			fmt.Sprintf("%d", r.Start), fmt.Sprintf("%d", r.End),
			fmt.Sprintf("%.2f", r.VarBA), fmt.Sprintf("%.2f", r.VarOA),
			fmt.Sprintf("%.2f", r.Dv),
		})
	}
	return table([]string{"Shot", "Start frame", "End frame", "VarBA", "VarOA", "Dv"}, out)
}

// Table4Clip is the regenerated index information of one clip (paper
// Table 4): every shot with its feature vector and Dv.
type Table4Clip struct {
	Name string
	Rows []Table3Row
}

// RunTable4 builds the two retrieval clips and their index tables.
func RunTable4() ([]Table4Clip, error) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var out []Table4Clip
	for _, def := range RetrievalCorpus() {
		clip, _, err := def.Build()
		if err != nil {
			return nil, err
		}
		rec, err := db.Ingest(clip)
		if err != nil {
			return nil, err
		}
		tc := Table4Clip{Name: def.Name}
		for i, sr := range rec.Shots {
			tc.Rows = append(tc.Rows, Table3Row{
				Shot: i + 1, Start: sr.Shot.Start + 1, End: sr.Shot.End + 1,
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA, Dv: sr.Feature.Dv(),
			})
		}
		out = append(out, tc)
	}
	return out, nil
}

// FormatTable4 renders the index tables of both clips.
func FormatTable4(clips []Table4Clip) string {
	var sb strings.Builder
	for _, c := range clips {
		fmt.Fprintf(&sb, "Index information for %q:\n", c.Name)
		sb.WriteString(FormatTable3(c.Rows))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Table5Row is one clip's evaluation row (paper Table 5).
type Table5Row struct {
	Def      ClipDef
	Duration string
	Cuts     int
	Result   evalmeasure.Result
}

// RunTable5 evaluates the camera-tracking detector over the 22-clip
// corpus at the given scale, returning per-clip rows and corpus totals.
func RunTable5(scale float64) ([]Table5Row, evalmeasure.Result, error) {
	det, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return nil, evalmeasure.Result{}, err
	}
	return runCorpus(scale, det)
}

// runCorpus evaluates any detector over the Table 5 corpus.
func runCorpus(scale float64, det sbd.Detector) ([]Table5Row, evalmeasure.Result, error) {
	var rows []Table5Row
	var total evalmeasure.Result
	for _, def := range Table5Corpus() {
		clip, gt, err := def.Build(scale)
		if err != nil {
			return nil, total, fmt.Errorf("%s: %w", def.Name, err)
		}
		bounds, err := det.Detect(clip)
		if err != nil {
			return nil, total, fmt.Errorf("%s: %w", def.Name, err)
		}
		res := evalmeasure.Evaluate(gt.Boundaries, bounds, evalmeasure.DefaultTolerance)
		rows = append(rows, Table5Row{
			Def: def, Duration: clip.DurationString(), Cuts: len(gt.Boundaries), Result: res,
		})
		total.Add(res)
	}
	return rows, total, nil
}

// FormatTable5 renders the evaluation like the paper's Table 5, with a
// subtotal row per category.
func FormatTable5(rows []Table5Row, total evalmeasure.Result) string {
	out := [][]string{}
	var catTotal evalmeasure.Result
	flushCategory := func(cat string) {
		if catTotal.Actual == 0 && catTotal.Detected == 0 {
			return
		}
		out = append(out, []string{"", "— " + cat + " subtotal", "",
			fmt.Sprintf("%d", catTotal.Actual),
			fmt.Sprintf("%.2f", catTotal.Recall()),
			fmt.Sprintf("%.2f", catTotal.Precision())})
		catTotal = evalmeasure.Result{}
	}
	for i, r := range rows {
		if i > 0 && rows[i-1].Def.Category != r.Def.Category {
			flushCategory(rows[i-1].Def.Category)
		}
		out = append(out, []string{
			r.Def.Category, r.Def.Name, r.Duration,
			fmt.Sprintf("%d", r.Cuts),
			fmt.Sprintf("%.2f", r.Result.Recall()),
			fmt.Sprintf("%.2f", r.Result.Precision()),
		})
		catTotal.Add(r.Result)
	}
	if len(rows) > 0 {
		flushCategory(rows[len(rows)-1].Def.Category)
	}
	out = append(out, []string{"", "Total", "", fmt.Sprintf("%d", total.Actual),
		fmt.Sprintf("%.2f", total.Recall()), fmt.Sprintf("%.2f", total.Precision())})
	return table([]string{"Type", "Name", "Duration", "Shot Changes", "Recall", "Precision"}, out)
}

// CompareRow is one detector's corpus-level result in the baseline
// comparison (substantiating the paper's §6 accuracy claim vs. [23]).
type CompareRow struct {
	Detector string
	Result   evalmeasure.Result
	Elapsed  time.Duration
}

// RunComparison evaluates the camera-tracking detector and the three
// baselines over the corpus at the given scale.
func RunComparison(scale float64) ([]CompareRow, error) {
	ct, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return nil, err
	}
	hd, err := histsbd.New(histsbd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ed, err := ecrsbd.New(ecrsbd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ad, err := histsbd.NewAdaptive(12)
	if err != nil {
		return nil, err
	}
	pd, err := pixelsbd.New(pixelsbd.DefaultConfig())
	if err != nil {
		return nil, err
	}
	var out []CompareRow
	for _, det := range []sbd.Detector{ct, hd, ad, ed, pd} {
		start := time.Now()
		_, total, err := runCorpus(scale, det)
		if err != nil {
			return nil, err
		}
		out = append(out, CompareRow{Detector: det.Name(), Result: total, Elapsed: time.Since(start)})
	}
	return out, nil
}

// FormatComparison renders the detector comparison.
func FormatComparison(rows []CompareRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Detector,
			fmt.Sprintf("%.2f", r.Result.Recall()),
			fmt.Sprintf("%.2f", r.Result.Precision()),
			fmt.Sprintf("%.2f", r.Result.F1()),
			r.Elapsed.Round(time.Millisecond).String(),
		})
	}
	return table([]string{"Detector", "Recall", "Precision", "F1", "Elapsed"}, out)
}

// RunFigure4 aggregates the SBD stage telemetry over the corpus: how
// many frame pairs each stage of Figure 4's pipeline decided.
func RunFigure4(scale float64) (sbd.Stats, error) {
	det, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return sbd.Stats{}, err
	}
	var total sbd.Stats
	for _, def := range Table5Corpus() {
		clip, _, err := def.Build(scale)
		if err != nil {
			return total, err
		}
		_, stats, err := det.DetectWithStats(clip)
		if err != nil {
			return total, err
		}
		total.Pairs += stats.Pairs
		total.BySign += stats.BySign
		total.BySig += stats.BySig
		total.ByTrack += stats.ByTrack
		total.Boundary += stats.Boundary
	}
	return total, nil
}

// FormatFigure4 renders the stage telemetry.
func FormatFigure4(s sbd.Stats) string {
	pct := func(n int) string {
		if s.Pairs == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(s.Pairs))
	}
	return table(
		[]string{"Decision", "Pairs", "Share"},
		[][]string{
			{"Stage 1 (sign test)", fmt.Sprintf("%d", s.BySign), pct(s.BySign)},
			{"Stage 2 (signature test)", fmt.Sprintf("%d", s.BySig), pct(s.BySig)},
			{"Stage 3 (background tracking)", fmt.Sprintf("%d", s.ByTrack), pct(s.ByTrack)},
			{"Shot boundary declared", fmt.Sprintf("%d", s.Boundary), pct(s.Boundary)},
			{"Total pairs", fmt.Sprintf("%d", s.Pairs), "100%"},
		})
}

// RunFigure6 ingests the Figure 5 clip and returns the scene tree
// rendering plus the level-1 grouping (sets of shot numbers under each
// level-1 scene), for comparison with Figure 6(g).
func RunFigure6() (string, [][]int, error) {
	clip, _, err := synth.Generate(Figure5Spec())
	if err != nil {
		return "", nil, err
	}
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return "", nil, err
	}
	rec, err := db.Ingest(clip)
	if err != nil {
		return "", nil, err
	}
	return rec.Tree.String(), levelOneGroups(rec.Tree), nil
}

// levelOneGroups lists, for each level-1 node, the sorted shot numbers
// (1-based) of its leaf children, with the groups ordered by their
// earliest shot.
func levelOneGroups(t *scenetree.Tree) [][]int {
	var groups [][]int
	for _, n := range t.Levels()[1] {
		var shots []int
		for _, c := range n.Children {
			if c.IsLeaf() {
				shots = append(shots, c.Shot+1)
			}
		}
		sort.Ints(shots)
		if len(shots) > 0 {
			groups = append(groups, shots)
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i][0] < groups[j][0] })
	return groups
}

// RunFigure7 ingests the Friends restaurant clip and returns its scene
// tree rendering.
func RunFigure7() (string, error) {
	clip, _, err := synth.Generate(FriendsSpec())
	if err != nil {
		return "", err
	}
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return "", err
	}
	rec, err := db.Ingest(clip)
	if err != nil {
		return "", err
	}
	return rec.Tree.String(), nil
}
