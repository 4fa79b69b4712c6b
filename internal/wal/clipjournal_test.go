package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/vtest"
)

func openCoreDB(t testing.TB) *core.Database {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func ingestTiny(t testing.TB, db *core.Database, name string, seed uint64) {
	t.Helper()
	if _, err := db.Ingest(vtest.TwoShotClip(name, seed, seed+1, 8, 16)); err != nil {
		t.Fatal(err)
	}
}

// journaledDB opens a database with a live clip journal at path.
func journaledDB(t testing.TB, path string, policy Policy) (*core.Database, *ClipJournal) {
	t.Helper()
	db := openCoreDB(t)
	j, res, err := RecoverAndOpen(db, path, policy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged {
		t.Fatalf("fresh journal reported damage: %+v", res)
	}
	t.Cleanup(func() { j.Close() })
	return db, j
}

// restored captures db the way a flush or a replica bootstrap does and
// loads the capture into a fresh database: the base a journal replays
// over.
func restored(t testing.TB, capture *core.PendingFlush) *core.Database {
	t.Helper()
	var buf bytes.Buffer
	if err := capture.WriteSegment(&buf, 0); err != nil {
		t.Fatal(err)
	}
	db := openCoreDB(t)
	if err := db.ApplySnapshot(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return db
}

// assertSameDB checks that two databases hold identical clip sets and
// answer shot queries identically — the differential check recovery
// tests lean on.
func assertSameDB(t *testing.T, got, want *core.Database) {
	t.Helper()
	gc, wc := got.Clips(), want.Clips()
	if len(gc) != len(wc) {
		t.Fatalf("recovered %d clips %v, want %d %v", len(gc), gc, len(wc), wc)
	}
	for i := range wc {
		if gc[i] != wc[i] {
			t.Fatalf("clip list differs: %v vs %v", gc, wc)
		}
	}
	if got.ShotCount() != want.ShotCount() {
		t.Fatalf("recovered %d index entries, want %d", got.ShotCount(), want.ShotCount())
	}
	for _, name := range wc {
		wrec, _ := want.Clip(name)
		grec, ok := got.Clip(name)
		if !ok {
			t.Fatalf("clip %q missing after recovery", name)
		}
		if len(grec.Shots) != len(wrec.Shots) || grec.Frames != wrec.Frames || grec.FPS != wrec.FPS {
			t.Fatalf("clip %q differs after recovery", name)
		}
		for shot := range wrec.Shots {
			wm, err := want.QueryByShot(name, shot, 8)
			if err != nil {
				t.Fatal(err)
			}
			gm, err := got.QueryByShot(name, shot, 8)
			if err != nil {
				t.Fatalf("query %s/%d after recovery: %v", name, shot, err)
			}
			if len(gm) != len(wm) {
				t.Fatalf("query %s/%d: %d matches, want %d", name, shot, len(gm), len(wm))
			}
			for k := range wm {
				if gm[k].Entry.Clip != wm[k].Entry.Clip || gm[k].Entry.Shot != wm[k].Entry.Shot {
					t.Fatalf("query %s/%d result %d differs: %+v vs %+v", name, shot, k, gm[k].Entry, wm[k].Entry)
				}
			}
		}
	}
}

// A journal alone — no segment under it — rebuilds the exact database state,
// including deletes.
func TestRecoverDatabaseDifferential(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, _ := journaledDB(t, path, PolicyAlways)
	for i := 0; i < 3; i++ {
		ingestTiny(t, db, fmt.Sprintf("clip-%d", i), uint64(10+i*2))
	}
	if err := db.Remove("clip-1"); err != nil {
		t.Fatal(err)
	}

	recovered := openCoreDB(t)
	res, err := RecoverDatabase(recovered, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged || res.Records != 4 {
		t.Fatalf("replay result %+v, want 4 clean records", res)
	}
	assertSameDB(t, recovered, db)
}

// Crash between "segment committed" and "journal rotated": replaying
// the whole journal over the capture re-applies records the capture
// already holds. Idempotence must make that a no-op.
func TestCapturePlusFullJournalEqualsMemory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, _ := journaledDB(t, path, PolicyAlways)
	ingestTiny(t, db, "early-0", 30)
	ingestTiny(t, db, "early-1", 40)

	recovered := restored(t, db.BeginSnapshot())
	// No rotation — the crash hit here. One more mutation lands in the
	// journal only.
	ingestTiny(t, db, "late", 50)

	res, err := RecoverDatabase(recovered, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged || res.Records != 3 {
		t.Fatalf("replay result %+v, want 3 clean records", res)
	}
	assertSameDB(t, recovered, db)
}

// After rotation the journal is empty: capture + rotated journal must
// equal memory, and replaying twice must change nothing.
func TestReplayIdempotentAfterRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, j := journaledDB(t, path, PolicyAlways)
	ingestTiny(t, db, "kept", 60)

	snap := db.BeginSnapshot()
	cut, _ := snap.JournalCut()
	recovered := restored(t, snap)
	if err := j.RotateTo(cut); err != nil {
		t.Fatal(err)
	}
	ingestTiny(t, db, "fresh", 70)

	for round := 0; round < 2; round++ {
		res, err := RecoverDatabase(recovered, path)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if res.Damaged || res.Records != 1 {
			t.Fatalf("round %d: replay result %+v, want 1 clean record", round, res)
		}
		assertSameDB(t, recovered, db)
	}
}

// The lost-write race: an ingest that commits and journals after the
// state is captured but before the journal rotates must survive the
// rotation — it is in neither the capture nor, with a naive full
// rotation, the journal. The capture pins the journal cut with the
// state under one lock hold; RotateTo discards only the captured
// prefix.
func TestRotateToKeepsWritesAfterSnapshotCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, j := journaledDB(t, path, PolicyAlways)
	ingestTiny(t, db, "early", 300)

	snap := db.BeginSnapshot()
	cut, ok := snap.JournalCut()
	if !ok {
		t.Fatal("BeginSnapshot captured no journal cut")
	}
	// The race window: a mutation lands between capture and rotation.
	ingestTiny(t, db, "late", 310)

	recovered := restored(t, snap)
	if err := j.RotateTo(cut); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash here: recovery is capture + rotated journal. "late" must
	// still exist, replayed from the journal's preserved tail.
	res, err := RecoverDatabase(recovered, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged || res.Records != 1 {
		t.Fatalf("replay result %+v, want exactly the post-cut record", res)
	}
	assertSameDB(t, recovered, db)
}

// A record whose frame checks out but whose payload is not a valid
// mutation must be treated as corruption: keep the prefix, truncate
// the rest, never fail startup.
func TestRecoverDatabaseTruncatesUndecodableRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, j := journaledDB(t, path, PolicyAlways)
	ingestTiny(t, db, "good", 80)
	if err := j.Append(OpIngest, []byte("not a clip record")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openCoreDB(t)
	res, err := RecoverDatabase(recovered, path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Damaged || res.Records != 1 {
		t.Fatalf("replay result %+v, want damage after 1 record", res)
	}
	if _, ok := recovered.Clip("good"); !ok {
		t.Fatal("valid prefix record lost")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != res.ValidBytes {
		t.Fatalf("journal is %d bytes after recovery, want %d", fi.Size(), res.ValidBytes)
	}
	// The cut tail must not resurface: a second recovery is clean and
	// identical, and the journal accepts appends again.
	again := openCoreDB(t)
	j2, res2, err := RecoverAndOpen(again, path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Damaged || res2.Records != 1 {
		t.Fatalf("re-recovery result %+v, want 1 clean record", res2)
	}
	assertSameDB(t, again, recovered)

	ingestTiny(t, again, "after-cut", 90)
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}

// Torture the clip journal the way the generic torture tests hit the
// frame layer: cut the file at every record boundary and at sampled
// intra-record offsets; recovery must always yield the longest valid
// prefix of ingested clips.
func TestClipJournalTortureTruncate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "clips.wal")
	db, j := journaledDB(t, path, PolicyAlways)

	boundaries := []int64{headerSize}
	names := []string{}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t-%d", i)
		ingestTiny(t, db, name, uint64(100+i*2))
		names = append(names, name)
		boundaries = append(boundaries, j.Stats().Bytes)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[len(boundaries)-1] {
		t.Fatalf("journal is %d bytes, stats say %d", len(data), boundaries[len(boundaries)-1])
	}

	// recordsBelow: how many whole records fit under a cut at off.
	recordsBelow := func(off int64) int {
		n := 0
		for i := 1; i < len(boundaries); i++ {
			if boundaries[i] <= off {
				n = i
			}
		}
		return n
	}

	cuts := append([]int64(nil), boundaries...)
	for i := 1; i < len(boundaries); i++ {
		prev, cur := boundaries[i-1], boundaries[i]
		cuts = append(cuts, prev+1, (prev+cur)/2, cur-1)
	}
	for _, cut := range cuts {
		tpath := filepath.Join(dir, fmt.Sprintf("cut-%d.wal", cut))
		if err := os.WriteFile(tpath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recovered := openCoreDB(t)
		res, err := RecoverDatabase(recovered, tpath)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := recordsBelow(cut)
		if res.Records != want {
			t.Fatalf("cut %d: recovered %d records, want %d (%+v)", cut, res.Records, want, res)
		}
		for k, name := range names {
			_, ok := recovered.Clip(name)
			if wantClip := k < want; ok != wantClip {
				t.Fatalf("cut %d: clip %q present=%v, want %v", cut, name, ok, wantClip)
			}
		}
	}
}

// PolicyInterval journals stay consistent under concurrent ingest
// while the flusher runs (exercised under -race).
func TestClipJournalConcurrentInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, j := journaledDB(t, path, PolicyInterval)
	_ = j
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 4; i++ {
			ingestTiny(t, db, fmt.Sprintf("iv-%d", i), uint64(200+i*2))
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent ingest wedged")
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	recovered := openCoreDB(t)
	res, err := RecoverDatabase(recovered, path)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged || res.Records != 4 {
		t.Fatalf("replay result %+v, want 4 clean records", res)
	}
	assertSameDB(t, recovered, db)
}

// A delete replayed for a clip the database no longer holds — one a
// later segment already dropped, or one replayed twice — changes
// nothing and is not an error.
func TestApplyDeleteIdempotent(t *testing.T) {
	db := openCoreDB(t)
	ingestTiny(t, db, "tiny-0", 1)
	del := func(name string) {
		t.Helper()
		if err := ApplyRecord(db, Record{Op: OpDelete, Data: []byte(name)}); err != nil {
			t.Fatalf("replaying the delete of %q: %v", name, err)
		}
	}
	del("no-such-clip")
	if len(db.Clips()) != 1 {
		t.Fatalf("deleting a missing clip changed the database")
	}
	del("tiny-0")
	del("tiny-0")
	if len(db.Clips()) != 0 || db.ShotCount() != 0 {
		t.Fatalf("delete left residue: %d clips, %d shots", len(db.Clips()), db.ShotCount())
	}
}

// An undecodable record is cut together with every record behind it,
// acknowledged ones included; TruncatedBytes must count the whole cut.
func TestRecoverDatabaseReportsWholeCut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, j := journaledDB(t, path, PolicyAlways)
	ingestTiny(t, db, "good", 80)
	if err := j.Append(OpIngest, []byte("not a clip record")); err != nil {
		t.Fatal(err)
	}
	ingestTiny(t, db, "behind-the-damage", 82)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	res, err := RecoverDatabase(openCoreDB(t), path)
	if err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Damaged || res.Records != 1 || after.Size() != res.ValidBytes {
		t.Fatalf("recovery %+v left a %d-byte journal, want damage after 1 record", res, after.Size())
	}
	if cut := before.Size() - after.Size(); res.TruncatedBytes() != cut || res.TotalBytes != before.Size() {
		t.Fatalf("cut %d bytes of %d, result reports %d truncated of %d",
			cut, before.Size(), res.TruncatedBytes(), res.TotalBytes)
	}
}

// Replay imports and removes through the same calls a live write
// makes, and those journal whenever a journal is installed: recovery
// must finish before RecoverAndOpen installs one, or every restart
// would append the journal to itself.
func TestRecoverAndOpenDoesNotRejournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clips.wal")
	db, j := journaledDB(t, path, PolicyAlways)
	for i, name := range []string{"a", "b", "c"} {
		ingestTiny(t, db, name, uint64(10*i+1))
	}
	if err := db.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	again := openCoreDB(t)
	j2, res, err := RecoverAndOpen(again, path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j2.Close() })
	assertSameDB(t, again, db)
	if res.Records != 4 || res.Damaged {
		t.Fatalf("recovery %+v, want 4 clean records", res)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) || j2.Stats().Records != 0 {
		t.Fatalf("recovery rewrote the journal: %d -> %d bytes, %d records appended",
			len(raw), len(got), j2.Stats().Records)
	}

	// A live write after recovery is journaled, exactly once.
	ingestTiny(t, again, "live", 70)
	if n := j2.Stats().Records; n != 1 {
		t.Fatalf("one live ingest appended %d records", n)
	}
	got, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, raw) {
		t.Fatal("a live ingest rewrote the recovered journal")
	}
	tail, err := ReplayRecords(bytes.NewReader(got[len(raw):]), nil)
	if err != nil || tail.Damaged || tail.Records != 1 {
		t.Fatalf("bytes past the recovered journal: %+v, %v; want one whole record", tail, err)
	}
}
