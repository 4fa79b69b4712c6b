package core

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"videodb/internal/segment"
)

// TestCatalogFollowsModel drives a segment-backed database through a
// seeded interleaving of imports (new names, and replacements of
// memtable and segment clips), removals from both homes, flushes with
// writes landing between capture and completion, and compaction swaps,
// checking the catalog against a map of encoded records after every
// step.
func TestCatalogFollowsModel(t *testing.T) {
	src := openDB(t)
	var pool []*ClipRecord
	for i := 0; i < 3; i++ {
		rec, err := src.Ingest(smallCorpusClip(t, fmt.Sprintf("src-%d", i), uint64(500+i)))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, rec)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCatalogModel(t, seed, pool)
		})
	}
}

// catalogCoverage counts the step kinds a run exercised, so a seed
// that never reaches a path fails instead of passing vacuously.
type catalogCoverage struct {
	importNew, importMem, importCold int
	removeMem, removeCold            int
	racedFlushes, swaps              int
}

func runCatalogModel(t *testing.T, seed uint64, pool []*ClipRecord) {
	r := rand.New(rand.NewPCG(seed, 0))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s", seed, fmt.Sprintf(format, args...))
	}
	db := openDB(t)
	if err := db.ApplySegmentBase(nil, 4); err != nil {
		fail("ApplySegmentBase: %v", err)
	}
	dir := t.TempDir()
	model := make(map[string][]byte)
	var cov catalogCoverage
	var live []uint64 // ids of the segments cold clips may point into
	var nextID uint64

	cold := func(name string) bool {
		v := db.view.Load()
		i, ok := v.find(name)
		return ok && v.refs[i].rec == nil
	}
	importClip := func() {
		name := fmt.Sprintf("n%02d", r.IntN(12))
		rec := *pool[r.IntN(len(pool))]
		rec.Name = name
		payload, err := EncodeClipRecord(&rec)
		if err != nil {
			fail("encode %q: %v", name, err)
		}
		switch _, held := model[name]; {
		case !held:
			cov.importNew++
		case cold(name):
			cov.importCold++
		default:
			cov.importMem++
		}
		if _, err := db.ImportClipRecord(payload); err != nil {
			fail("import %q: %v", name, err)
		}
		model[name] = payload
	}
	removeClip := func() {
		if len(model) == 0 {
			importClip()
			return
		}
		names := sortedKeys(model)
		name := names[r.IntN(len(names))]
		if cold(name) {
			cov.removeCold++
		} else {
			cov.removeMem++
		}
		if err := db.Remove(name); err != nil {
			fail("remove %q: %v", name, err)
		}
		delete(model, name)
	}
	writeSeg := func(pf *PendingFlush) *segment.Reader {
		nextID++
		return writeSegmentFile(t, dir, nextID, pf)
	}
	flush := func() {
		pf, err := db.BeginFlush()
		if err != nil {
			fail("BeginFlush: %v", err)
		}
		if pf == nil {
			return
		}
		raced := r.IntN(3)
		for i := 0; i < raced; i++ {
			if r.IntN(3) == 0 {
				removeClip()
			} else {
				importClip()
			}
		}
		if raced > 0 {
			cov.racedFlushes++
		}
		seg := writeSeg(pf)
		if err := db.CompleteFlush(pf, seg); err != nil {
			fail("CompleteFlush: %v", err)
		}
		live = append(live, seg.ID())
	}
	swap := func() {
		if len(live) < 2 {
			flush()
			return
		}
		// The replacement holds every live clip, so every slot into the
		// old segments finds its name in it.
		merged := writeSeg(db.BeginSnapshot())
		if err := db.SwapSegments(live, merged); err != nil {
			fail("SwapSegments: %v", err)
		}
		live = []uint64{merged.ID()}
		cov.swaps++
	}

	for step := 0; step < 300; step++ {
		switch k := r.IntN(10); {
		case k < 5:
			importClip()
		case k < 7:
			removeClip()
		case k < 9:
			flush()
		default:
			swap()
		}
		checkCatalog(t, seed, step, db, model)
	}
	if cov.importNew == 0 || cov.importMem == 0 || cov.importCold == 0 ||
		cov.removeMem == 0 || cov.removeCold == 0 || cov.racedFlushes == 0 || cov.swaps == 0 {
		fail("a step kind never ran: %+v", cov)
	}
}

// checkCatalog compares db's catalog with the model of encoded records.
func checkCatalog(t *testing.T, seed uint64, step int, db *Database, model map[string][]byte) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d, step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	want := sortedKeys(model)
	if got := db.Clips(); !slices.Equal(got, want) {
		fail("Clips = %v, want %v", got, want)
	}
	shots := 0
	for _, name := range want {
		rec, ok := db.Clip(name)
		if !ok {
			fail("Clip(%q) missing", name)
		}
		got, err := EncodeClipRecord(rec)
		if err != nil {
			fail("re-encode %q: %v", name, err)
		}
		if !bytes.Equal(got, model[name]) {
			fail("Clip(%q) re-encodes to different bytes", name)
		}
		shots += len(rec.Shots)
	}
	if db.ShotCount() != shots {
		fail("ShotCount = %d, want %d", db.ShotCount(), shots)
	}
	if n := db.MemtableClips() + db.ColdClips(); n != len(want) || db.ClipCount() != len(want) {
		fail("memtable %d + cold %d, ClipCount %d, want %d",
			db.MemtableClips(), db.ColdClips(), db.ClipCount(), len(want))
	}
	v := db.view.Load()
	if len(v.refs) != len(v.names) {
		fail("%d refs for %d names", len(v.refs), len(v.names))
	}
	for i := 1; i < len(v.names); i++ {
		if v.names[i-1] >= v.names[i] {
			fail("names not strictly increasing at %d: %q, %q", i, v.names[i-1], v.names[i])
		}
	}
}

func sortedKeys(m map[string][]byte) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
