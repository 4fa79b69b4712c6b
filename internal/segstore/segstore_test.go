// The differential suite: a segment-backed store must answer every
// read — Query, QueryBatch, QueryByShot, Records, Browse — bit-
// identically to a pure in-memory database holding the same corpus,
// across flushes, reopens and compactions, including reads racing a
// compaction under -race.
package segstore_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"videodb/internal/core"
	"videodb/internal/experiments"
	"videodb/internal/segstore"
	"videodb/internal/varindex"
	"videodb/internal/vtest"
	"videodb/internal/wal"
)

// table5Records analyzes the Table 5 corpus once per test binary and
// returns the encoded journal payloads — the transferable form both
// the reference database and the store are seeded from, so the
// comparison isolates the storage engine, not the (already
// differential-tested) analysis pipeline.
var table5Records = sync.OnceValues(func() ([][]byte, error) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, d := range experiments.Table5Corpus() {
		clip, _, err := d.Build(0.05)
		if err != nil {
			return nil, err
		}
		if _, err := db.Ingest(clip); err != nil {
			return nil, err
		}
	}
	recs := db.Records()
	payloads := make([][]byte, 0, len(recs))
	for _, rec := range recs {
		p, err := core.EncodeClipRecord(rec)
		if err != nil {
			return nil, err
		}
		payloads = append(payloads, p)
	}
	return payloads, nil
})

func corpus(t testing.TB) [][]byte {
	t.Helper()
	payloads, err := table5Records()
	if err != nil {
		t.Fatal(err)
	}
	return payloads
}

// seed imports payloads into db, journaling them when db has a journal.
func seed(t testing.TB, db *core.Database, payloads [][]byte) {
	t.Helper()
	for _, p := range payloads {
		if _, err := db.ImportClipRecord(p); err != nil {
			t.Fatal(err)
		}
	}
}

// memReference builds the pure in-memory database all stores are
// compared against.
func memReference(t testing.TB) *core.Database {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	seed(t, db, corpus(t))
	return db
}

func openStore(t testing.TB, dir string, fanout int) *segstore.Store {
	t.Helper()
	s, err := segstore.Open(dir, segstore.Options{
		Core:   core.DefaultOptions(),
		Fanout: fanout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// sceneShape is the comparable identity of a scene-tree node.
type sceneShape struct {
	Shot, Level, RepFrame, RunLen int
	Nil                           bool
}

func shapeOf(m core.Match) sceneShape {
	if m.Scene == nil {
		return sceneShape{Nil: true}
	}
	return sceneShape{Shot: m.Scene.Shot, Level: m.Scene.Level, RepFrame: m.Scene.RepFrame, RunLen: m.Scene.RunLen}
}

// assertIdentical drives every read path against both databases and
// requires bit-identical answers.
func assertIdentical(t *testing.T, label string, want, got *core.Database) {
	t.Helper()
	if w, g := want.Clips(), got.Clips(); !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: Clips differ:\n want %v\n got  %v", label, w, g)
	}
	if w, g := want.ShotCount(), got.ShotCount(); w != g {
		t.Fatalf("%s: ShotCount %d != %d", label, g, w)
	}
	for _, db := range []*core.Database{want, got} {
		if m, c, n := db.MemtableClips(), db.ColdClips(), db.ClipCount(); m+c != n {
			t.Fatalf("%s: %d memtable + %d cold clips != %d clips", label, m, c, n)
		}
	}

	// Records: full analysis state, field by field (tree via its
	// canonical flat form; Pipeline telemetry is zero on both sides by
	// construction).
	wrecs, grecs := want.Records(), got.Records()
	if len(wrecs) != len(grecs) {
		t.Fatalf("%s: %d records != %d", label, len(grecs), len(wrecs))
	}
	for i := range wrecs {
		w, g := wrecs[i], grecs[i]
		if w.Name != g.Name || w.Frames != g.Frames || w.FPS != g.FPS || w.Stats != g.Stats {
			t.Fatalf("%s: record %q header differs", label, w.Name)
		}
		if !reflect.DeepEqual(w.Shots, g.Shots) {
			t.Fatalf("%s: record %q shots differ", label, w.Name)
		}
		if !reflect.DeepEqual(w.Tree.Flatten(), g.Tree.Flatten()) {
			t.Fatalf("%s: record %q tree differs", label, w.Name)
		}
	}

	// Browse: the scene hierarchy resolves identically.
	for _, name := range want.Clips() {
		w, err := want.Browse(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Browse(name)
		if err != nil {
			t.Fatalf("%s: Browse(%q): %v", label, name, err)
		}
		if !reflect.DeepEqual(w.Flatten(), g.Flatten()) {
			t.Fatalf("%s: Browse(%q) differs", label, name)
		}
	}

	// Query / QueryByShot / QueryBatch over probes derived from every
	// shot of every clip.
	var probes []varindex.Query
	for _, rec := range wrecs {
		for k := range rec.Shots {
			f := rec.Shots[k].Feature
			probes = append(probes, varindex.Query{VarBA: f.VarBA, VarOA: f.VarOA, MeanBA: f.MeanBA})
		}
	}
	for i, q := range probes {
		w, err := want.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		g, err := got.Query(q)
		if err != nil {
			t.Fatalf("%s: Query probe %d: %v", label, i, err)
		}
		if len(w) != len(g) {
			t.Fatalf("%s: probe %d: %d matches != %d", label, i, len(g), len(w))
		}
		for j := range w {
			if !reflect.DeepEqual(w[j].Entry, g[j].Entry) || shapeOf(w[j]) != shapeOf(g[j]) {
				t.Fatalf("%s: probe %d match %d differs:\n want %+v %+v\n got  %+v %+v",
					label, i, j, w[j].Entry, shapeOf(w[j]), g[j].Entry, shapeOf(g[j]))
			}
		}
	}
	wb, err := want.QueryBatch(probes, want.Options().Query)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.QueryBatch(probes, got.Options().Query)
	if err != nil {
		t.Fatalf("%s: QueryBatch: %v", label, err)
	}
	for i := range wb {
		if len(wb[i]) != len(gb[i]) {
			t.Fatalf("%s: batch query %d: %d matches != %d", label, i, len(gb[i]), len(wb[i]))
		}
		for j := range wb[i] {
			if !reflect.DeepEqual(wb[i][j].Entry, gb[i][j].Entry) || shapeOf(wb[i][j]) != shapeOf(gb[i][j]) {
				t.Fatalf("%s: batch query %d match %d differs", label, i, j)
			}
		}
	}
	for _, name := range want.Clips() {
		rec, _ := want.Clip(name)
		for k := range rec.Shots {
			w, err := want.QueryByShot(name, k, 10)
			if err != nil {
				t.Fatal(err)
			}
			g, err := got.QueryByShot(name, k, 10)
			if err != nil {
				t.Fatalf("%s: QueryByShot(%q,%d): %v", label, name, k, err)
			}
			if len(w) != len(g) {
				t.Fatalf("%s: QueryByShot(%q,%d): %d != %d", label, name, k, len(g), len(w))
			}
			for j := range w {
				if !reflect.DeepEqual(w[j].Entry, g[j].Entry) || shapeOf(w[j]) != shapeOf(g[j]) {
					t.Fatalf("%s: QueryByShot(%q,%d) match %d differs", label, name, k, j)
				}
			}
		}
	}
}

// TestDifferentialFlushReopenCompact is the storage engine's
// correctness contract end to end: seed a store in batches with a
// flush per batch (several generation-1 segments), compare against the
// in-memory reference after every phase — memtable, flushed, reopened
// (pure mmap, no WAL replay), compacted, and reopened again.
func TestDifferentialFlushReopenCompact(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	mem := memReference(t)
	payloads := corpus(t)
	dir := t.TempDir()

	s := openStore(t, dir, 2)
	// Seed in three batches, flushing after each: three segments.
	third := (len(payloads) + 2) / 3
	for lo := 0; lo < len(payloads); lo += third {
		hi := lo + third
		if hi > len(payloads) {
			hi = len(payloads)
		}
		seed(t, s.DB(), payloads[lo:hi])
		res, err := s.Flush()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Flushed {
			t.Fatal("flush had nothing to write")
		}
	}
	if got := s.Stats().Segments; got < 2 {
		t.Fatalf("expected multiple segments, got %d", got)
	}
	assertIdentical(t, "flushed", mem, s.DB())

	// Reopen: the pure startup path — manifest + mmap, empty WAL.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, 2)
	if s2.Replay().Records != 0 {
		t.Fatalf("reopen replayed %d WAL records, want 0 (flush rotated)", s2.Replay().Records)
	}
	assertIdentical(t, "reopened", mem, s2.DB())

	// Compact everything down and compare again.
	n, err := s2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("compaction found no run at fanout 2 with 3 segments")
	}
	assertIdentical(t, "compacted", mem, s2.DB())

	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, 2)
	assertIdentical(t, "reopened-after-compaction", mem, s3.DB())
}

// TestMidCompactionReads races the full read surface against
// compactions and flushes; run under -race in CI. Readers pin views,
// so every answer must come from a consistent corpus even while
// segments are merged and unlinked beneath them.
func TestMidCompactionReads(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	mem := memReference(t)
	payloads := corpus(t)
	s := openStore(t, t.TempDir(), 2)
	// One segment per clip: the richest possible compaction cascade.
	for _, p := range payloads {
		seed(t, s.DB(), [][]byte{p})
		if _, err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				names := s.DB().Clips()
				name := names[(i+w)%len(names)]
				if _, err := s.DB().Browse(name); err != nil {
					t.Errorf("Browse(%q) mid-compaction: %v", name, err)
					return
				}
				rec, ok := s.DB().Clip(name)
				if !ok {
					t.Errorf("Clip(%q) vanished mid-compaction", name)
					return
				}
				f := rec.Shots[i%len(rec.Shots)].Feature
				q := varindex.Query{VarBA: f.VarBA, VarOA: f.VarOA, MeanBA: f.MeanBA}
				if _, err := s.DB().Query(q); err != nil {
					t.Errorf("Query mid-compaction: %v", err)
					return
				}
			}
		}(w)
	}
	for {
		did, err := s.CompactOnce()
		if err != nil {
			t.Fatal(err)
		}
		if !did {
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}
	assertIdentical(t, "post-cascade", mem, s.DB())
}

// TestWALRecoveryWithoutFlush: memtable mutations survive a restart
// through the WAL alone.
func TestWALRecoveryWithoutFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	payloads := corpus(t)
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	seed(t, s.DB(), payloads[:2])
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// These two stay in the memtable, reaching disk only via the WAL.
	seed(t, s.DB(), payloads[2:4])
	// Delete a flushed clip; the WAL carries the delete, the next open
	// must honor it before any flush wrote a tombstone segment.
	victim := s.DB().Clips()[0]
	if err := s.DB().Remove(victim); err != nil {
		t.Fatal(err)
	}
	want := s.DB().Clips()
	shots := s.DB().ShotCount()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 4)
	if s2.Replay().Records == 0 {
		t.Fatal("reopen replayed nothing; memtable was lost")
	}
	if got := s2.DB().Clips(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after recovery: clips %v, want %v", got, want)
	}
	if got := s2.DB().ShotCount(); got != shots {
		t.Fatalf("after recovery: %d shots, want %d", got, shots)
	}
	if _, ok := s2.DB().Clip(victim); ok {
		t.Fatalf("deleted clip %q resurrected by recovery", victim)
	}
}

// TestTombstoneFlushAndCompaction: a delete of a flushed clip is
// carried by a tombstone segment across restarts, and a whole-store
// compaction drops both the tombstone and the dead clip.
func TestTombstoneFlushAndCompaction(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	payloads := corpus(t)
	dir := t.TempDir()
	s := openStore(t, dir, 2)
	seed(t, s.DB(), payloads[:3])
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	victim := s.DB().Clips()[1]
	if err := s.DB().Remove(victim); err != nil {
		t.Fatal(err)
	}
	res, err := s.Flush() // tombstone-only segment
	if err != nil {
		t.Fatal(err)
	}
	if !res.Flushed || res.Tombstones != 1 || res.Clips != 0 {
		t.Fatalf("tombstone flush = %+v", res)
	}
	want := s.DB().Clips()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openStore(t, dir, 2)
	if got := s2.DB().Clips(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after reopen: clips %v, want %v", got, want)
	}
	// Compact the two segments; the run includes the oldest, so the
	// tombstone and the dead clip both disappear.
	if _, err := s2.Compact(); err != nil {
		t.Fatal(err)
	}
	man := s2.Manifest()
	if len(man.Segments) != 1 || man.Segments[0].Tombs != 0 {
		t.Fatalf("post-compaction manifest: %+v", man.Segments)
	}
	if got := s2.DB().Clips(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after compaction: clips %v, want %v", got, want)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openStore(t, dir, 2)
	if got := s3.DB().Clips(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after compacted reopen: clips %v, want %v", got, want)
	}
}

// TestOrphanCleanup: stray segment files and abandoned temp files from
// a crashed flush are deleted at Open and never surface as data.
func TestOrphanCleanup(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	payloads := corpus(t)
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	seed(t, s.DB(), payloads[:2])
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := s.DB().Clips()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// A crashed flush leaves a fully-written segment file the manifest
	// never adopted, plus AtomicWrite droppings.
	strays := []string{"seg-00009999.vseg", ".seg-00000002.vseg.tmp-123"}
	for _, stray := range strays {
		if err := os.WriteFile(filepath.Join(dir, stray), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := openStore(t, dir, 4)
	if got := s2.DB().Clips(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after orphan cleanup: clips %v, want %v", got, want)
	}
	for _, stray := range strays {
		if _, err := os.Stat(filepath.Join(dir, stray)); err == nil {
			t.Fatalf("stray file %s survived Open", stray)
		}
	}
}

// TestOpenLocksDirectory: a directory has one owner. A second Open of a
// live store fails with ErrLocked, naming the directory, and before it
// can run orphan cleanup — so a segment the owner has written but not
// yet committed survives it.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	openStore(t, dir, 4)
	pending := filepath.Join(dir, "seg-00000009.vseg")
	if err := os.WriteFile(pending, []byte("not yet in the manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := segstore.Open(dir, segstore.Options{Core: core.DefaultOptions()})
	if !errors.Is(err, segstore.ErrLocked) {
		t.Fatalf("second Open of a live store: %v, want ErrLocked", err)
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("ErrLocked does not name the directory: %v", err)
	}
	if _, err := os.Stat(pending); err != nil {
		t.Fatalf("the refused Open deleted the owner's uncommitted segment: %v", err)
	}
}

// TestCloseReleasesLock: after Close the directory opens again, and the
// new owner holds the lock in turn.
func TestCloseReleasesLock(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 4)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	openStore(t, dir, 4)
	if _, err := segstore.Open(dir, segstore.Options{Core: core.DefaultOptions()}); !errors.Is(err, segstore.ErrLocked) {
		t.Fatalf("Open beside the reopened store: %v, want ErrLocked", err)
	}
}

// TestFailedOpenReleasesLock: an Open that fails on a corrupt segment
// gives the lock back, so the directory opens once the file is repaired.
// A refused fanout fails before the lock is taken.
func TestFailedOpenReleasesLock(t *testing.T) {
	dir := t.TempDir()
	for _, tc := range []struct {
		fanout int
		ok     bool
	}{{0, true}, {1, false}, {-1, false}, {2, true}} {
		s, err := segstore.Open(dir, segstore.Options{Core: core.DefaultOptions(), Fanout: tc.fanout})
		if (err == nil) != tc.ok {
			t.Fatalf("Open with fanout %d: %v, want success %v", tc.fanout, err, tc.ok)
		}
		if err == nil {
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	s := openStore(t, dir, 4)
	if _, err := s.DB().Ingest(vtest.TwoShotClip("kept", 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, s.Manifest().Segments[0].File)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(good)
	bad[len(bad)/2] ^= 0xff
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := segstore.Open(dir, segstore.Options{Core: core.DefaultOptions()}); err == nil || errors.Is(err, segstore.ErrLocked) {
		t.Fatalf("Open over a corrupt segment: %v, want a corruption error", err)
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := openStore(t, dir, 4)
	if _, ok := s2.DB().Clip("kept"); !ok {
		t.Fatal("the repaired store lost its flushed clip")
	}
}

// TestOpenRefusesOldFormatWAL: a wal.log written by the previous journal
// format holds acknowledged writes this build cannot read. Open must
// fail — not "recover" the journal down to its header — and must leave
// the file byte for byte as it found it.
func TestOpenRefusesOldFormatWAL(t *testing.T) {
	dir := t.TempDir()
	// An intact v1 header followed by one well-framed record.
	payload := []byte{1, wal.OpIngest, 'g', 'o', 'b'}
	old := append([]byte(wal.Magic), 1, 0)
	old = binary.LittleEndian.AppendUint32(old, uint32(len(payload)))
	old = binary.LittleEndian.AppendUint32(old, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	old = append(old, payload...)
	path := filepath.Join(dir, segstore.WALName)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := segstore.Open(dir, segstore.Options{Core: core.DefaultOptions()}); !errors.Is(err, wal.ErrVersion) {
		t.Fatalf("Open over a v1 wal.log: %v, want wal.ErrVersion", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, old) {
		t.Fatalf("refused wal.log was modified: %d bytes, was %d", len(after), len(old))
	}
}
