package core

import (
	"bytes"
	"testing"

	"videodb/internal/segment"
)

// fuzzSeeds adds a valid payload and the damage a crash or a torn
// transfer leaves behind: a flipped checksum byte, a mid-payload
// truncation, nothing, a bare magic, and plain text.
func fuzzSeeds(f *testing.F, valid []byte) {
	f.Add(valid)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)-9] ^= 1 // last byte of the footer CRC
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte(segment.Magic))
	f.Add([]byte("not a segment at all, just text"))
}

// assertConsistent checks that db holds together: every clip listed is
// fetchable with a browsable tree, and the index row count matches the
// shots the clips carry.
func assertConsistent(t *testing.T, db *Database) {
	t.Helper()
	shots := 0
	for _, name := range db.Clips() {
		rec, ok := db.Clip(name)
		if !ok {
			t.Fatalf("clip %q listed but not fetchable", name)
		}
		shots += len(rec.Shots)
		if _, err := db.Browse(name); err != nil {
			t.Fatalf("clip %q applied with unbrowsable tree: %v", name, err)
		}
	}
	if db.ShotCount() != shots {
		t.Fatalf("index holds %d entries, clips hold %d shots", db.ShotCount(), shots)
	}
}

// seeded opens a database holding base's clips — prior state a rejected
// payload must leave alone — without paying for an ingest per input.
func seeded(t *testing.T, base []byte) *Database {
	t.Helper()
	db := openDB(t)
	if err := db.ApplySnapshot(base); err != nil {
		t.Fatal(err)
	}
	return db
}

// FuzzImportClipRecord: the record decoder faces whatever is in the
// journal after a crash, or on the wire mid-migration. Arbitrary bytes
// must never panic it and never half-apply (a rejected payload leaves
// the epoch where it was); anything it accepts must leave an internally
// consistent database.
func FuzzImportClipRecord(f *testing.F) {
	base := snapshotBytes(f, cheapDB(f, 1))
	fuzzSeeds(f, exported(f, cheapDB(f, 1), "tiny-0"))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := seeded(t, base)
		epoch := db.Epoch()
		if _, err := db.ImportClipRecord(data); err != nil {
			if db.Epoch() != epoch {
				t.Fatalf("rejected record moved the epoch: %v", err)
			}
			return
		}
		assertConsistent(t, db)
	})
}

// FuzzApplySnapshot is the same contract for the replica bootstrap
// body.
func FuzzApplySnapshot(f *testing.F) {
	base := snapshotBytes(f, cheapDB(f, 1))
	fuzzSeeds(f, snapshotBytes(f, cheapDB(f, 2)))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := seeded(t, base)
		epoch := db.Epoch()
		if err := db.ApplySnapshot(data); err != nil {
			if db.Epoch() != epoch {
				t.Fatalf("rejected snapshot moved the epoch: %v", err)
			}
			return
		}
		assertConsistent(t, db)
		// Whatever was accepted must survive a second trip unchanged.
		again := openDB(t)
		if err := again.ApplySnapshot(snapshotBytes(t, db)); err != nil {
			t.Fatalf("re-snapshot of an accepted snapshot rejected: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, again), snapshotBytes(t, db)) {
			t.Fatal("snapshot is not a fixed point of apply")
		}
	})
}
