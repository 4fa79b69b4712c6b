package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"
	"testing"

	"videodb/internal/segment"
	"videodb/internal/vtest"
)

// cheapDB builds a database holding n tiny two-shot clips — fast
// enough to use inside fuzz seeds and torture loops.
func cheapDB(t testing.TB, n int) *Database {
	t.Helper()
	db := openDB(t)
	for i := 0; i < n; i++ {
		clip := vtest.TwoShotClip(fmt.Sprintf("tiny-%d", i), uint64(i*2+1), uint64(i*2+2), 8, 16)
		if _, err := db.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// snapshotBytes captures db the way a replica bootstrap does.
func snapshotBytes(t testing.TB, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.BeginSnapshot().WriteSegment(&buf, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// exported returns name's EncodeClipRecord payload.
func exported(t testing.TB, db *Database, name string) []byte {
	t.Helper()
	rec, ok := db.Clip(name)
	if !ok {
		t.Fatalf("clip %q missing", name)
	}
	payload, err := EncodeClipRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// assertUntouched fails unless db still sits at epoch and still holds
// exactly the clip "keep" — the state every rejected payload must leave.
func assertUntouched(t *testing.T, label string, db *Database, epoch uint64) {
	t.Helper()
	if db.Epoch() != epoch {
		t.Fatalf("%s: rejected payload moved the epoch %d -> %d", label, epoch, db.Epoch())
	}
	if names := db.Clips(); len(names) != 1 || names[0] != "keep" {
		t.Fatalf("%s: rejected payload changed the clip set to %v", label, names)
	}
}

// damagedSweep runs apply over every single-byte flip and every proper
// prefix of payload against a database holding one unrelated clip. A
// damaged payload is either rejected with segment.ErrCorrupt, leaving
// the database exactly as it was, or — when the flip hit bytes no
// checksum covers (alignment padding, the segment id) — accepted with
// content identical to the undamaged payload's, which same reports.
func damagedSweep(t *testing.T, payload []byte, apply func(*Database, []byte) error, same func(*Database) bool) {
	t.Helper()
	fresh := func() (*Database, uint64) {
		db := openDB(t)
		if _, err := db.Ingest(vtest.TwoShotClip("keep", 91, 92, 8, 16)); err != nil {
			t.Fatal(err)
		}
		return db, db.Epoch()
	}
	db, epoch := fresh()
	mut := make([]byte, len(payload))
	for off := range payload {
		copy(mut, payload)
		mut[off] ^= 0xFF
		label := fmt.Sprintf("flip@%d", off)
		if err := apply(db, mut); err != nil {
			if !errors.Is(err, segment.ErrCorrupt) {
				t.Fatalf("%s: error is not segment.ErrCorrupt: %v", label, err)
			}
			assertUntouched(t, label, db, epoch)
			continue
		}
		if !same(db) {
			t.Fatalf("%s: damaged payload applied with different content", label)
		}
		db, epoch = fresh()
	}
	// Zero bytes is the (valid) empty snapshot, so prefixes start at 1.
	for n := 1; n < len(payload); n++ {
		label := fmt.Sprintf("truncate@%d", n)
		if err := apply(db, payload[:n]); err == nil {
			t.Fatalf("%s of %d bytes applied", label, len(payload))
		}
		assertUntouched(t, label, db, epoch)
	}
}

// A clip record off a damaged journal or a torn transfer must never
// half-apply: every flip and every truncation is rejected whole, or
// changes nothing that is stored. The import runs on a database with
// no journal, as replay does.
func TestApplyIngestRecordRejectsDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is not short")
	}
	payload := exported(t, cheapDB(t, 1), "tiny-0")
	damagedSweep(t, payload,
		func(db *Database, p []byte) error { _, err := db.ImportClipRecord(p); return err },
		func(db *Database) bool { return bytes.Equal(exported(t, db, "tiny-0"), payload) })
}

// The same for a replica bootstrap body: rejected whole (the replica
// keeps its previous corpus) or identical to the primary.
func TestApplySnapshotRejectsDamage(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is not short")
	}
	src := cheapDB(t, 2)
	payload := snapshotBytes(t, src)
	damagedSweep(t, payload,
		func(db *Database, p []byte) error { return db.ApplySnapshot(p) },
		func(db *Database) bool {
			return len(db.Clips()) == 2 &&
				bytes.Equal(exported(t, db, "tiny-0"), exported(t, src, "tiny-0")) &&
				bytes.Equal(exported(t, db, "tiny-1"), exported(t, src, "tiny-1"))
		})
}

// An empty database snapshots to zero bytes, and zero bytes bootstrap
// an empty database — replacing whatever the replica held.
func TestSnapshotOfEmptyDatabase(t *testing.T) {
	payload := snapshotBytes(t, openDB(t))
	if len(payload) != 0 {
		t.Fatalf("empty database snapshot is %d bytes", len(payload))
	}
	dst := cheapDB(t, 1)
	if err := dst.ApplySnapshot(payload); err != nil {
		t.Fatal(err)
	}
	if len(dst.Clips()) != 0 || dst.ShotCount() != 0 {
		t.Fatalf("empty snapshot left %d clips, %d shots", len(dst.Clips()), dst.ShotCount())
	}
}

func TestApplyIngestRecordIdempotent(t *testing.T) {
	src := cheapDB(t, 1)
	rec, _ := src.Clip("tiny-0")
	payload, err := EncodeClipRecord(rec)
	if err != nil {
		t.Fatal(err)
	}

	dst := openDB(t)
	for round := 0; round < 3; round++ {
		name, err := dst.ImportClipRecord(payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if name != "tiny-0" {
			t.Fatalf("round %d: applied clip %q", round, name)
		}
		if got := len(dst.Clips()); got != 1 {
			t.Fatalf("round %d: %d clips after apply", round, got)
		}
		if dst.ShotCount() != src.ShotCount() {
			t.Fatalf("round %d: %d shots, want %d (stale index entries?)", round, dst.ShotCount(), src.ShotCount())
		}
	}
	// The replayed clip answers queries like the original.
	sf := rec.Shots[0].Feature
	matches, err := dst.QueryByShot("tiny-0", 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatalf("replayed clip invisible to queries (feature %+v)", sf)
	}
}

func TestApplyIngestRecordRejectsGarbage(t *testing.T) {
	db := openDB(t)
	for _, payload := range [][]byte{nil, {}, []byte("not a segment"), snapshotBytes(t, cheapDB(t, 2))} {
		if _, err := db.ImportClipRecord(payload); err == nil {
			t.Errorf("garbage payload %q applied", payload)
		}
	}
	if len(db.Clips()) != 0 {
		t.Fatalf("failed applies left %d clips behind", len(db.Clips()))
	}
}

// withFeature returns a copy of a segment payload with every occurrence
// of the float64 old replaced by v and every checksum recomputed: a
// well-formed segment carrying a value the encoder refuses to write.
func withFeature(t *testing.T, payload []byte, old, v float64) []byte {
	t.Helper()
	le := func(f float64) []byte { return binary.LittleEndian.AppendUint64(nil, math.Float64bits(f)) }
	if n := bytes.Count(payload, le(old)); n != 2 { // shot column + index run
		t.Fatalf("sentinel %v occurs %d times in the payload, want 2", old, n)
	}
	out := bytes.ReplaceAll(payload, le(old), le(v))
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	footerLen := int(binary.LittleEndian.Uint32(out[len(out)-8:]))
	footer := out[len(out)-8-footerLen : len(out)-8]
	table := footer[:len(footer)-4]
	for row := table[4:]; len(row) >= 24; row = row[24:] {
		off, n := binary.LittleEndian.Uint64(row[8:16]), binary.LittleEndian.Uint64(row[16:24])
		binary.LittleEndian.PutUint32(row[4:8], crc32.Checksum(out[off:off+n], castagnoli))
	}
	binary.LittleEndian.PutUint32(footer[len(footer)-4:], crc32.Checksum(table, castagnoli))
	return out
}

// A clip record whose features lie outside the similarity model's
// domain would break the index's D^v order and, once journaled, come
// back on every restart. Import refuses it as corrupt, before the
// journal or the view changes — with a journal installed (a live
// import) and without one (replay).
func TestImportRejectsOutOfDomainFeatures(t *testing.T) {
	j := &recordingJournal{}
	db := cheapDB(t, 12)
	db.SetJournal(j)
	epoch, shots := db.Epoch(), db.ShotCount()

	const sentinel = 1234.5625
	rec, _ := db.Clip("tiny-0")
	poison := *rec
	poison.Name = "poison"
	poison.Shots = append([]ShotRecord(nil), rec.Shots...)
	poison.Shots[0].Feature.VarBA = sentinel
	payload, err := EncodeClipRecord(&poison)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), -4} {
		bad := withFeature(t, payload, sentinel, v)
		if _, err := db.ImportClipRecord(bad); !errors.Is(err, segment.ErrCorrupt) {
			t.Errorf("import with VarBA %v: err = %v, want segment.ErrCorrupt", v, err)
		}
		if _, err := openDB(t).ImportClipRecord(bad); !errors.Is(err, segment.ErrCorrupt) {
			t.Errorf("replay with VarBA %v: err = %v, want segment.ErrCorrupt", v, err)
		}
	}
	if db.Epoch() != epoch || db.ShotCount() != shots || len(db.Clips()) != 12 || len(j.ingests) != 0 {
		t.Fatalf("refused records changed the database: epoch %d -> %d, shots %d -> %d, %d clips, %d journaled",
			epoch, db.Epoch(), shots, db.ShotCount(), len(db.Clips()), len(j.ingests))
	}
	// The untouched payload is a valid record.
	if _, err := db.ImportClipRecord(payload); err != nil {
		t.Fatalf("import of the in-domain record: %v", err)
	}
}

// recordingJournal captures journal calls; failNext injects an error.
type recordingJournal struct {
	mu       sync.Mutex
	ingests  []string
	deletes  []string
	failNext error
}

func (j *recordingJournal) LogIngest(rec *ClipRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.failNext; err != nil {
		j.failNext = nil
		return err
	}
	j.ingests = append(j.ingests, rec.Name)
	return nil
}

func (j *recordingJournal) LogDelete(name string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.failNext; err != nil {
		j.failNext = nil
		return err
	}
	j.deletes = append(j.deletes, name)
	return nil
}

func (j *recordingJournal) Size() int64 { return 0 }

func TestJournalSeesEveryMutation(t *testing.T) {
	j := &recordingJournal{}
	db := openDB(t)
	db.SetJournal(j)
	if _, err := db.Ingest(vtest.TwoShotClip("a", 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(vtest.TwoShotClip("b", 3, 4, 8, 16)); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b"}; len(j.ingests) != 2 || j.ingests[0] != want[0] || j.ingests[1] != want[1] {
		t.Fatalf("journaled ingests %v, want %v", j.ingests, want)
	}
	if len(j.deletes) != 1 || j.deletes[0] != "a" {
		t.Fatalf("journaled deletes %v, want [a]", j.deletes)
	}
}

// Write-ahead semantics: a journal failure must abort the mutation so
// the in-memory state never runs ahead of the log.
func TestJournalFailureAbortsMutation(t *testing.T) {
	j := &recordingJournal{failNext: errors.New("disk full")}
	db := openDB(t)
	db.SetJournal(j)
	if _, err := db.Ingest(vtest.TwoShotClip("doomed", 1, 2, 8, 16)); err == nil {
		t.Fatal("ingest succeeded despite journal failure")
	}
	if _, ok := db.Clip("doomed"); ok {
		t.Fatal("aborted ingest is visible")
	}
	if db.ShotCount() != 0 {
		t.Fatalf("aborted ingest left %d index entries", db.ShotCount())
	}
	// The name must not stay reserved: the same clip ingests cleanly
	// once the journal recovers.
	if _, err := db.Ingest(vtest.TwoShotClip("doomed", 1, 2, 8, 16)); err != nil {
		t.Fatalf("re-ingest after journal failure: %v", err)
	}

	j.failNext = errors.New("disk full")
	if err := db.Remove("doomed"); err == nil {
		t.Fatal("remove succeeded despite journal failure")
	}
	if _, ok := db.Clip("doomed"); !ok {
		t.Fatal("aborted remove deleted the clip anyway")
	}
}

// Concurrent ingest, snapshot, query and journal traffic must be free
// of data races (run under -race) and every snapshot must observe a
// consistent state.
func TestConcurrentIngestSnapshotJournal(t *testing.T) {
	j := &recordingJournal{}
	db := openDB(t)
	db.SetJournal(j)

	const writers = 4
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("c-%d-%d", w, i)
				clip := vtest.TwoShotClip(name, uint64(w*100+i*2+1), uint64(w*100+i*2+2), 8, 16)
				if _, err := db.Ingest(clip); err != nil {
					t.Errorf("ingest %s: %v", name, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := openDB(t).ApplySnapshot(snapshotBytes(t, db)); err != nil {
				t.Errorf("snapshot %d inconsistent: %v", i, err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			db.Clips()
			db.ShotCount()
		}
	}()
	wg.Wait()

	if got := len(db.Clips()); got != writers*3 {
		t.Fatalf("%d clips after concurrent ingest, want %d", got, writers*3)
	}
	if got := len(j.ingests); got != writers*3 {
		t.Fatalf("journal saw %d ingests, want %d", got, writers*3)
	}
}
