package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"videodb/internal/segment"
	"videodb/internal/varindex"
)

// writeSegmentFile encodes pf as segment id in dir and opens it.
func writeSegmentFile(t *testing.T, dir string, id uint64, pf *PendingFlush) *segment.Reader {
	t.Helper()
	path := filepath.Join(dir, segment.SegmentFileName(id))
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.WriteSegment(f, id); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := segment.Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return r
}

// queryFingerprint answers one query per ingested shot against db and
// returns the flattened (entry, scene shape) results — the equality
// basis the flush and swap tests compare across tier moves.
func queryFingerprint(t *testing.T, db *Database, skip ...string) []varindex.Entry {
	t.Helper()
	skipped := make(map[string]bool, len(skip))
	for _, s := range skip {
		skipped[s] = true
	}
	var out []varindex.Entry
	for _, name := range db.Clips() {
		if skipped[name] {
			continue
		}
		rec, ok := db.Clip(name)
		if !ok {
			t.Fatalf("clip %q listed but not resolvable", name)
		}
		for k := range rec.Shots {
			// k is large enough that truncation never hides an entry —
			// otherwise an unrelated clip appearing mid-test could displace
			// results and break the equality basis.
			ms, err := db.QueryByShot(name, k, 100)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range ms {
				e := m.Entry
				if m.Scene != nil {
					// Fold the scene shape in via spare fields of a copy, so
					// a wrong/missing scene attachment changes the print.
					e.Shot = e.Shot*1000 + m.Scene.Level*100 + m.Scene.RepFrame%100
				}
				out = append(out, e)
			}
		}
	}
	return out
}

// TestFlushFlipPublishes exercises the whole flush protocol against a
// live database: capture, encode, complete — with a delete and a
// re-ingest racing between capture and completion, which must survive
// the pointer-identity flip untouched.
func TestFlushFlipPublishes(t *testing.T) {
	db := openDB(t)
	if err := db.ApplySegmentBase(nil, 8); err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"a", "b", "c"} {
		if _, err := db.Ingest(smallCorpusClip(t, name, uint64(100+i))); err != nil {
			t.Fatal(err)
		}
	}
	// b is deleted and re-ingested mid-test, so the equality basis is
	// queries over a and c, keeping only a/c entries.
	before := queryFingerprint(t, db, "b")
	treeBefore, err := db.Browse("a")
	if err != nil {
		t.Fatal(err)
	}

	pf, err := db.BeginFlush()
	if err != nil {
		t.Fatal(err)
	}
	if pf == nil || pf.Clips() != 3 || pf.Tombstones() != 0 {
		t.Fatalf("capture = %+v", pf)
	}

	// Race a delete + re-ingest of "b" between capture and completion.
	if err := db.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(smallCorpusClip(t, "b", 999)); err != nil {
		t.Fatal(err)
	}

	seg := writeSegmentFile(t, t.TempDir(), 1, pf)
	if err := db.CompleteFlush(pf, seg); err != nil {
		t.Fatal(err)
	}
	// a and c flipped cold; the re-ingested b must stay in the memtable
	// (its record is not the captured pointer).
	if db.MemtableClips() != 1 || db.ColdClips() != 2 {
		t.Fatalf("after flush: %d memtable, %d cold", db.MemtableClips(), db.ColdClips())
	}
	// The delete recorded a tombstone after the capture, so it is still
	// pending for the next flush.
	if db.PendingTombstones() != 1 {
		t.Fatalf("pending tombstones = %d, want 1", db.PendingTombstones())
	}
	if got, ok := db.Clip("b"); !ok || got.Shots == nil || reflect.DeepEqual(got, pf.refs[1].rec) {
		t.Fatalf("re-ingested b was clobbered by the flush flip")
	}

	// Queries over a and c answer identically from the cold tier. The
	// re-ingested b also answers *into* a/c queries, so b entries are
	// dropped from both sides.
	after := queryFingerprint(t, db, "b")
	filter := func(in []varindex.Entry) []varindex.Entry {
		var out []varindex.Entry
		for _, e := range in {
			if e.Clip != "b" {
				out = append(out, e)
			}
		}
		return out
	}
	ba, aa := filter(before), filter(after)
	if len(ba) == 0 {
		t.Fatal("fingerprint is empty — fixture too small")
	}
	if !reflect.DeepEqual(ba, aa) {
		t.Fatalf("a/c query results changed across the flush:\n before %d entries\n after  %d entries", len(ba), len(aa))
	}

	// The materialized tree round-trips the browsing hierarchy exactly.
	treeAfter, err := db.Browse("a")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(treeBefore.Flatten(), treeAfter.Flatten()) {
		t.Fatal("cold-materialized scene tree differs from the ingested one")
	}

	// Second flush writes the re-ingested b plus the pending tombstone.
	pf2, err := db.BeginFlush()
	if err != nil {
		t.Fatal(err)
	}
	if pf2 == nil || pf2.Clips() != 1 || pf2.Tombstones() != 1 {
		t.Fatalf("second capture: %d clips, %d tombs", pf2.Clips(), pf2.Tombstones())
	}
	seg2 := writeSegmentFile(t, t.TempDir(), 2, pf2)
	if err := db.CompleteFlush(pf2, seg2); err != nil {
		t.Fatal(err)
	}
	if db.MemtableClips() != 0 || db.ColdClips() != 3 || db.PendingTombstones() != 0 {
		t.Fatalf("after second flush: %d memtable, %d cold, %d tombs",
			db.MemtableClips(), db.ColdClips(), db.PendingTombstones())
	}
}

// TestApplySegmentBaseComposition verifies the manifest precedence
// rules: newer segments shadow older clip-by-clip, and tombstones
// delete from strictly older segments only.
func TestApplySegmentBaseComposition(t *testing.T) {
	// Stage records by ingesting into a scratch database.
	scratch := openDB(t)
	for i, name := range []string{"a", "b", "c"} {
		if _, err := scratch.Ingest(smallCorpusClip(t, name, uint64(200+i))); err != nil {
			t.Fatal(err)
		}
	}
	recA, _ := scratch.Clip("a")
	recB, _ := scratch.Clip("b")
	recC, _ := scratch.Clip("c")

	dir := t.TempDir()
	// seg1: {a, b}. seg2: tombstone a, clips {b', c} — b' shadows seg1's
	// b, the tombstone kills a.
	seg1 := writeSegmentFile(t, dir, 1, &PendingFlush{refs: memRefs(recA, recB)})
	scratch2 := openDB(t)
	if _, err := scratch2.Ingest(smallCorpusClip(t, "b", 777)); err != nil {
		t.Fatal(err)
	}
	recB2, _ := scratch2.Clip("b")
	seg2 := writeSegmentFile(t, dir, 2, &PendingFlush{
		refs:  memRefs(recB2, recC),
		tombs: []string{"a"},
	})

	db := openDB(t)
	if err := db.ApplySegmentBase([]*segment.Reader{seg1, seg2}, 8); err != nil {
		t.Fatal(err)
	}
	if got := db.Clips(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("Clips = %v, want [b c]", got)
	}
	if want := len(recB2.Shots) + len(recC.Shots); db.ShotCount() != want {
		t.Fatalf("ShotCount = %d, want %d", db.ShotCount(), want)
	}
	// The surviving b is seg2's version.
	got, ok := db.Clip("b")
	if !ok {
		t.Fatal("b missing")
	}
	if got.Frames != recB2.Frames || len(got.Shots) != len(recB2.Shots) {
		t.Fatalf("b resolved to the shadowed version")
	}
	if _, ok := db.Clip("a"); ok {
		t.Fatal("tombstoned clip a still resolvable")
	}
	// Re-ingest of a tombstoned name must be accepted (not a duplicate).
	if _, err := db.Ingest(smallCorpusClip(t, "a", 201)); err != nil {
		t.Fatalf("re-ingest of tombstoned name: %v", err)
	}
}

// TestSwapSegmentsRepoints verifies the compaction commit: cold
// references move to the merged segment with no change to names,
// queries or scene resolution.
func TestSwapSegmentsRepoints(t *testing.T) {
	scratch := openDB(t)
	for i, name := range []string{"x", "y"} {
		if _, err := scratch.Ingest(smallCorpusClip(t, name, uint64(300+i))); err != nil {
			t.Fatal(err)
		}
	}
	recX, _ := scratch.Clip("x")
	recY, _ := scratch.Clip("y")

	dir := t.TempDir()
	seg1 := writeSegmentFile(t, dir, 1, &PendingFlush{refs: memRefs(recX)})
	seg2 := writeSegmentFile(t, dir, 2, &PendingFlush{refs: memRefs(recY)})
	merged := writeSegmentFile(t, dir, 3, &PendingFlush{refs: memRefs(recX, recY)})

	db := openDB(t)
	if err := db.ApplySegmentBase([]*segment.Reader{seg1, seg2}, 8); err != nil {
		t.Fatal(err)
	}
	before := queryFingerprint(t, db)
	epoch := db.Epoch()
	if err := db.SwapSegments([]uint64{1, 2}, merged); err != nil {
		t.Fatal(err)
	}
	if db.Epoch() != epoch+1 {
		t.Fatalf("swap did not publish (epoch %d -> %d)", epoch, db.Epoch())
	}
	after := queryFingerprint(t, db)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("query results changed across segment swap")
	}
	// A swap that would orphan a live clip is rejected before publishing.
	if err := db.SwapSegments([]uint64{3}, seg1); err == nil {
		t.Fatal("swap removing segment 3 without y accepted")
	}
}

// memRefs wraps records as the memtable refs a flush capture holds.
func memRefs(recs ...*ClipRecord) []clipRef {
	refs := make([]clipRef, len(recs))
	for i, rec := range recs {
		refs[i] = clipRef{rec: rec}
	}
	return refs
}

// TestFlushNothingToDo: an empty capture is nil, not an error.
func TestFlushNothingToDo(t *testing.T) {
	db := openDB(t)
	if _, err := db.BeginFlush(); err == nil {
		t.Fatal("BeginFlush without a segment base accepted")
	}
	if err := db.ApplySegmentBase(nil, 0); err != nil {
		t.Fatal(err)
	}
	pf, err := db.BeginFlush()
	if err != nil {
		t.Fatal(err)
	}
	if pf != nil {
		t.Fatalf("empty capture = %+v, want nil", pf)
	}
}
