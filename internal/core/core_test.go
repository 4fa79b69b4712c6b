package core

import (
	"fmt"
	"testing"

	"videodb/internal/rng"
	"videodb/internal/synth"
	"videodb/internal/varindex"
	"videodb/internal/video"
	"videodb/internal/vtest"
)

// corpusClip generates a small multi-shot clip with location revisits.
func corpusClip(t testing.TB, name string, seed uint64) (*video.Clip, synth.GroundTruth) {
	t.Helper()
	spec, err := synth.BuildClip(synth.GenreDrama, synth.ClipParams{
		Name: name, Shots: 12, DurationSec: 60, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip, gt, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return clip, gt
}

func openDB(t testing.TB) *Database {
	t.Helper()
	db, err := Open(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOpenValidatesOptions(t *testing.T) {
	bad := DefaultOptions()
	bad.SBD.SignTol = -1
	if _, err := Open(bad); err == nil {
		t.Error("bad SBD config accepted")
	}
	bad = DefaultOptions()
	bad.Tree.RelationThresholdPct = 0
	if _, err := Open(bad); err == nil {
		t.Error("bad tree config accepted")
	}
	bad = DefaultOptions()
	bad.Query.Alpha = -1
	if _, err := Open(bad); err == nil {
		t.Error("bad query options accepted")
	}
	bad = DefaultOptions()
	bad.Workers = -1
	if _, err := Open(bad); err == nil {
		t.Error("negative workers accepted")
	}
}

func TestIngestBasics(t *testing.T) {
	db := openDB(t)
	clip, gt := corpusClip(t, "drama-1", 1)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Name != "drama-1" || rec.Frames != clip.Len() {
		t.Errorf("record metadata wrong: %+v", rec)
	}
	if len(rec.Shots) == 0 {
		t.Fatal("no shots detected")
	}
	// Shot count should be within a factor of the true count.
	if got, want := len(rec.Shots), len(gt.Shots); got < want/2 || got > want*2 {
		t.Errorf("detected %d shots, truth has %d", got, want)
	}
	if err := rec.Tree.Validate(); err != nil {
		t.Errorf("ingested tree invalid: %v", err)
	}
	if db.ShotCount() != len(rec.Shots) {
		t.Errorf("index has %d entries, want %d", db.ShotCount(), len(rec.Shots))
	}
	// Shots tile the clip.
	pos := 0
	for i, sr := range rec.Shots {
		if sr.Shot.Start != pos {
			t.Fatalf("shot %d starts at %d, want %d", i, sr.Shot.Start, pos)
		}
		if sr.RepFrame < sr.Shot.Start || sr.RepFrame > sr.Shot.End {
			t.Fatalf("shot %d rep frame %d outside [%d,%d]", i, sr.RepFrame, sr.Shot.Start, sr.Shot.End)
		}
		pos = sr.Shot.End + 1
	}
	if pos != clip.Len() {
		t.Fatalf("shots cover %d of %d frames", pos, clip.Len())
	}
}

func TestIngestRejectsDuplicates(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "dup", 2)
	if _, err := db.Ingest(clip); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(clip); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestIngestRejectsInvalidClips(t *testing.T) {
	db := openDB(t)
	if _, err := db.Ingest(video.NewClip("empty", 3)); err == nil {
		t.Error("empty clip accepted")
	}
	clip, _ := corpusClip(t, "unnamed", 3)
	clip.Name = ""
	if _, err := db.Ingest(clip); err == nil {
		t.Error("unnamed clip accepted")
	}
}

func TestIngestAllConcurrent(t *testing.T) {
	db := openDB(t)
	var clips []*video.Clip
	for i := 0; i < 4; i++ {
		c, _ := corpusClip(t, fmt.Sprintf("clip-%d", i), uint64(10+i))
		clips = append(clips, c)
	}
	if err := db.IngestAll(clips); err != nil {
		t.Fatal(err)
	}
	if got := db.Clips(); len(got) != 4 {
		t.Fatalf("ingested %d clips, want 4: %v", len(got), got)
	}
}

// TestClipsOfOneSizeShareAnalyzer: every clip of one frame size is
// analyzed by one analyzer, so its sampling maps and pooled reducers
// are built once per size, not once per clip; and uploads of ever new
// sizes keep at most maxAnalyzers of them.
func TestClipsOfOneSizeShareAnalyzer(t *testing.T) {
	db := openDB(t)
	for i, name := range []string{"a", "b"} {
		if _, err := db.Ingest(vtest.TwoShotClip(name, uint64(2*i+1), uint64(2*i+2), 8, 16)); err != nil {
			t.Fatal(err)
		}
	}
	shared := db.analyzers[[2]int{160, 120}]
	if len(db.analyzers) != 1 || shared == nil {
		t.Fatalf("two 160x120 clips left %d analyzers", len(db.analyzers))
	}
	if an, err := db.analyzer(160, 120); err != nil || an != shared {
		t.Fatalf("analyzer(160, 120) = %p, %v; want the shared %p", an, err, shared)
	}
	for w := 161; w <= 160+maxAnalyzers; w++ {
		if an, err := db.analyzer(w, 120); err != nil || an == nil || an == shared {
			t.Fatalf("analyzer(%d, 120) = %p, %v", w, an, err)
		}
	}
	if len(db.analyzers) != maxAnalyzers {
		t.Fatalf("kept %d analyzers, want the bound %d", len(db.analyzers), maxAnalyzers)
	}
}

func TestIngestAllReportsErrors(t *testing.T) {
	db := openDB(t)
	good, _ := corpusClip(t, "good", 20)
	if err := db.IngestAll([]*video.Clip{good, video.NewClip("bad", 3)}); err == nil {
		t.Error("invalid clip in batch not reported")
	}
	if _, ok := db.Clip("good"); !ok {
		t.Error("good clip lost when sibling failed")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "q", 4)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	// Query with an existing shot's own feature vector: it must match
	// itself.
	sf := rec.Shots[0].Feature
	matches, err := db.Query(varindex.Query{VarBA: sf.VarBA, VarOA: sf.VarOA})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, m := range matches {
		if m.Entry.Clip == "q" && m.Entry.Shot == 0 {
			found = true
			if m.Scene == nil {
				t.Error("match has no scene node")
			}
		}
	}
	if !found {
		t.Error("shot did not match its own feature vector")
	}
}

func TestQueryByShot(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "qs", 5)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	matches, err := db.QueryByShot("qs", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 3 {
		t.Errorf("got %d matches, want <= 3", len(matches))
	}
	for _, m := range matches {
		if m.Entry.Clip == "qs" && m.Entry.Shot == 0 {
			t.Error("query shot returned itself")
		}
	}
	_ = rec
	if _, err := db.QueryByShot("missing", 0, 3); err == nil {
		t.Error("missing clip accepted")
	}
	if _, err := db.QueryByShot("qs", 999, 3); err == nil {
		t.Error("missing shot accepted")
	}
}

func TestBrowse(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "b", 6)
	if _, err := db.Ingest(clip); err != nil {
		t.Fatal(err)
	}
	tree, err := db.Browse("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := db.Browse("nope"); err == nil {
		t.Error("missing clip browsed")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 2; i++ {
		clip, _ := corpusClip(t, fmt.Sprintf("s-%d", i), uint64(30+i))
		if _, err := db.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	got := openDB(t)
	if err := got.ApplySnapshot(snapshotBytes(t, db)); err != nil {
		t.Fatal(err)
	}
	if len(got.Clips()) != 2 {
		t.Fatalf("loaded %d clips", len(got.Clips()))
	}
	if got.ShotCount() != db.ShotCount() {
		t.Errorf("loaded %d shots, want %d", got.ShotCount(), db.ShotCount())
	}
	// Queries behave identically after reload.
	rec, _ := db.Clip("s-0")
	sf := rec.Shots[0].Feature
	q := varindex.Query{VarBA: sf.VarBA, VarOA: sf.VarOA}
	a, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := got.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("query results differ after reload: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Entry.Key() != b[i].Entry.Key() {
			t.Errorf("result %d differs: %s vs %s", i, a[i].Entry.Key(), b[i].Entry.Key())
		}
		if (a[i].Scene == nil) != (b[i].Scene == nil) {
			t.Errorf("result %d scene presence differs", i)
		} else if a[i].Scene != nil && a[i].Scene.Name() != b[i].Scene.Name() {
			t.Errorf("result %d scene differs: %s vs %s", i, a[i].Scene.Name(), b[i].Scene.Name())
		}
	}
	// Reloaded trees validate.
	tree, err := got.Browse("s-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Error(err)
	}
}

func TestApplySnapshotRejectsGarbage(t *testing.T) {
	if err := openDB(t).ApplySnapshot([]byte("not a snapshot")); err == nil {
		t.Error("garbage snapshot accepted")
	}
}

// TestSceneTreeGroupsRevisitedLocations: ingesting a clip that revisits
// locations must produce at least one multi-shot scene.
func TestSceneTreeGroupsRevisitedLocations(t *testing.T) {
	// Build a deterministic clip alternating two locations: A B A B A B.
	tp := synth.DefaultTextureParams()
	tp2 := synth.DefaultTextureParams()
	tp2.BaseColor = video.RGB(70, 90, 120)
	r := rng.New(99)
	spec := synth.ClipSpec{
		Name: "alt", W: 160, H: 120, FPS: 3, Seed: 123,
		Locations: []synth.TextureParams{tp, tp2},
	}
	for i := 0; i < 6; i++ {
		spec.Shots = append(spec.Shots, synth.ShotSpec{
			Location: i % 2,
			Frames:   8,
			Camera:   synth.Camera{X: r.Float64Range(0, 50), Y: r.Float64Range(0, 50)},
			FlashAt:  -1,
		})
	}
	clip, gt, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt.Boundaries) != 5 {
		t.Fatalf("ground truth has %d boundaries", len(gt.Boundaries))
	}
	db := openDB(t)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Shots) != 6 {
		t.Fatalf("detected %d shots, want 6", len(rec.Shots))
	}
	// The A shots (and B shots) share locations, so the tree must rise
	// above a flat root of singleton scenes.
	if rec.Tree.Height() < 1 {
		t.Error("tree did not group related shots")
	}
	// The level-1 parent of shot 0 should contain shots from both
	// groups' interleaving — at minimum more than one child.
	if p := rec.Tree.Leaves[0].Parent; p != nil && len(p.Children) < 2 {
		t.Error("revisited locations not grouped into a scene")
	}
}

func TestStatsTelemetry(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "stats", 7)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	s := rec.Stats
	if s.Pairs != clip.Len()-1 {
		t.Errorf("pairs = %d, want %d", s.Pairs, clip.Len()-1)
	}
	if s.BySign+s.BySig+s.ByTrack+s.Boundary != s.Pairs {
		t.Error("stage decisions do not sum to pairs")
	}
}

func BenchmarkIngest60sClip(b *testing.B) {
	clip, _ := corpusClip(b, "bench", 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := Open(DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := db.Ingest(clip); err != nil {
			b.Fatal(err)
		}
	}
}

// TestConcurrentQueriesDuringIngest exercises the database's locking:
// queries, browses and listings run while clips are being ingested.
// Run with -race to verify the synchronization.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	db := openDB(t)
	seed, _ := corpusClip(t, "seed", 90)
	if _, err := db.Ingest(seed); err != nil {
		t.Fatal(err)
	}
	var clips []*video.Clip
	for i := 0; i < 3; i++ {
		c, _ := corpusClip(t, fmt.Sprintf("conc-%d", i), uint64(91+i))
		clips = append(clips, c)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := db.IngestAll(clips); err != nil {
			t.Error(err)
		}
	}()
	q := varindex.Query{VarBA: 1, VarOA: 1}
	for i := 0; ; i++ {
		select {
		case <-done:
			if got := len(db.Clips()); got != 4 {
				t.Fatalf("have %d clips after concurrent ingest", got)
			}
			return
		default:
		}
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if _, err := db.QueryByShot("seed", 0, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Browse("seed"); err != nil {
			t.Fatal(err)
		}
		db.ShotCount()
	}
}

func TestRemoveClip(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "gone", 44)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	keep, _ := corpusClip(t, "keep", 45)
	if _, err := db.Ingest(keep); err != nil {
		t.Fatal(err)
	}
	before := db.ShotCount()
	if err := db.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if _, ok := db.Clip("gone"); ok {
		t.Error("removed clip still present")
	}
	if got := db.ShotCount(); got != before-len(rec.Shots) {
		t.Errorf("index has %d entries, want %d", got, before-len(rec.Shots))
	}
	// Queries no longer return the removed clip.
	sf := rec.Shots[0].Feature
	matches, err := db.Query(varindex.Query{VarBA: sf.VarBA, VarOA: sf.VarOA})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		if m.Entry.Clip == "gone" {
			t.Error("query returned a removed clip")
		}
	}
	if err := db.Remove("gone"); err == nil {
		t.Error("double removal succeeded")
	}
	// The clip can be re-ingested after removal.
	if _, err := db.Ingest(clip); err != nil {
		t.Errorf("re-ingest after removal failed: %v", err)
	}
}

func TestQueryBatchMatchesSequentialQueries(t *testing.T) {
	db := openDB(t)
	clip, _ := corpusClip(t, "batch", 4)
	rec, err := db.Ingest(clip)
	if err != nil {
		t.Fatal(err)
	}
	queries := make([]varindex.Query, 0, len(rec.Shots)+1)
	for _, sr := range rec.Shots {
		queries = append(queries, varindex.Query{VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA})
	}
	queries = append(queries, varindex.Query{VarBA: 1e6, VarOA: 0}) // matches nothing

	batches, err := db.QueryBatch(queries, db.Options().Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(batches) != len(queries) {
		t.Fatalf("%d result slices, want %d", len(batches), len(queries))
	}
	for i, q := range queries {
		single, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(single) != len(batches[i]) {
			t.Fatalf("query %d: sequential returned %d matches, batch %d", i, len(single), len(batches[i]))
		}
		for j := range single {
			if single[j].Entry != batches[i][j].Entry || single[j].Scene != batches[i][j].Scene {
				t.Errorf("query %d match %d differs between batch and sequential", i, j)
			}
		}
	}
	if len(batches[len(batches)-1]) != 0 {
		t.Error("impossible query matched shots")
	}
}

func TestQueryBatchRejectsBadOptions(t *testing.T) {
	db := openDB(t)
	if _, err := db.QueryBatch([]varindex.Query{{VarBA: 1, VarOA: 1}}, varindex.Options{Alpha: -1}); err == nil {
		t.Error("negative tolerance accepted")
	}
}
