// Package integration exercises the whole system end to end: synthesis
// → container round trip → ingestion → queries → segment-store persistence →
// HTTP serving, asserting the invariants that cross module boundaries.
package integration

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"testing/quick"

	"videodb/internal/core"
	"videodb/internal/evalmeasure"
	"videodb/internal/rng"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/store"
	"videodb/internal/synth"
	"videodb/internal/varindex"
	"videodb/internal/wal"
)

// TestFullPipeline drives one clip through every layer.
func TestFullPipeline(t *testing.T) {
	// 1. Synthesise with ground truth.
	spec, err := synth.BuildClip(synth.GenreSitcom, synth.ClipParams{
		Name: "pipeline", Shots: 14, DurationSec: 70, Seed: 3030,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip, gt, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}

	// 2. Container round trip must not change analysis inputs.
	path := filepath.Join(t.TempDir(), "clip"+store.Ext)
	if err := store.SaveClipFile(path, clip); err != nil {
		t.Fatal(err)
	}
	loaded, err := store.LoadClipFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clip.Frames {
		if !clip.Frames[i].Equal(loaded.Frames[i]) {
			t.Fatalf("frame %d changed in the container", i)
		}
	}

	// 3. Ingest the loaded copy; detection quality against ground truth.
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.Ingest(loaded)
	if err != nil {
		t.Fatal(err)
	}
	var bounds []int
	for _, sr := range rec.Shots[1:] {
		bounds = append(bounds, sr.Shot.Start)
	}
	res := evalmeasure.Evaluate(gt.Boundaries, bounds, evalmeasure.DefaultTolerance)
	if res.Recall() < 0.6 || res.Precision() < 0.6 {
		t.Errorf("end-to-end detection weak: %v", res)
	}

	// 4. Every shot matches its own feature vector through the index,
	//    and the suggested scene contains the shot.
	for i, sr := range rec.Shots {
		matches, err := db.QueryByShot("pipeline", i, 1000)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range matches {
			if m.Entry.Clip == "pipeline" && m.Entry.Shot == i {
				t.Fatalf("shot %d returned itself from QueryByShot", i)
			}
		}
		q := varindex.Query{VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA}
		all, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, m := range all {
			if m.Entry.Clip == "pipeline" && m.Entry.Shot == i {
				found = true
				if m.Scene == nil {
					t.Fatalf("shot %d match missing scene", i)
				}
			}
		}
		if !found {
			t.Fatalf("shot %d does not match its own features", i)
		}
	}

	// 5. A trip through the storage engine — exported record, journal,
	//    flushed segment, reopen — preserves query behaviour, then the
	//    HTTP layer serves the same data from the mmap-ed segment.
	payload, err := core.EncodeClipRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := segstore.Options{Core: core.DefaultOptions(), Policy: wal.PolicyAlways}
	st, err := segstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.DB().ImportClipRecord(payload); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := segstore.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	db2 := st2.DB()
	ts := httptest.NewServer(server.New(db2, server.WithStorage(st2)).Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/clips/pipeline")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Shots     int `json:"shots"`
		ShotTable []struct {
			Start, End int
		} `json:"shotTable"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Shots != len(rec.Shots) || len(got.ShotTable) != len(rec.Shots) {
		t.Errorf("HTTP shot table has %d/%d rows, want %d", got.Shots, len(got.ShotTable), len(rec.Shots))
	}
	if last := got.ShotTable[len(got.ShotTable)-1]; last.End != clip.Len()-1 {
		t.Errorf("HTTP shot table ends at %d, want %d", last.End, clip.Len()-1)
	}
}

// TestPropertyPipelineInvariants: for random small genre clips, the
// pipeline never fails and maintains structural invariants.
func TestPropertyPipelineInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("property pipeline skipped in -short mode")
	}
	genres := []synth.Genre{
		synth.GenreDrama, synth.GenreCommercials, synth.GenreSports,
		synth.GenreTalkShow, synth.GenreDocumentary,
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g := genres[r.Intn(len(genres))]
		spec, err := synth.BuildClip(g, synth.ClipParams{
			Name:        "prop",
			Shots:       2 + r.Intn(8),
			DurationSec: 20 + r.Float64Range(0, 40),
			Seed:        r.Uint64(),
		})
		if err != nil {
			return false
		}
		clip, gt, err := synth.Generate(spec)
		if err != nil {
			return false
		}
		if gt.Validate(clip.Len()) != nil {
			return false
		}
		db, err := core.Open(core.DefaultOptions())
		if err != nil {
			return false
		}
		rec, err := db.Ingest(clip)
		if err != nil {
			return false
		}
		// Shots tile the clip; the tree validates; reps in range.
		pos := 0
		for _, sr := range rec.Shots {
			if sr.Shot.Start != pos || sr.RepFrame < sr.Shot.Start || sr.RepFrame > sr.Shot.End {
				return false
			}
			pos = sr.Shot.End + 1
		}
		if pos != clip.Len() {
			return false
		}
		return rec.Tree.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
