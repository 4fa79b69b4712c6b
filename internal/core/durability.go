// Durability: the write-ahead journal hooks and the one serialization
// of a clip. A clip's persistent state — shots, feature vectors,
// flattened scene tree, detector stats; never pixels — is always a
// segment (internal/segment): a one-clip segment is the journal's
// OpIngest payload and the migration payload, a segment of every live
// clip is the replica bootstrap body, and segstore's flushed files are
// the same thing on disk. Every clip record enters through
// ImportClipRecord and leaves through Remove — a live write, crash
// recovery, a replica's WAL tail and a reshard import alike. Replay
// runs before a journal is installed, so it is never re-journaled, and
// re-applying state is idempotent, so a crash between "segment
// committed" and "journal rotated" only makes replay re-apply state the
// segment already holds. docs/STORAGE.md has the whole lifecycle.

package core

import (
	"bytes"
	"fmt"

	"videodb/internal/segment"
	"videodb/internal/varindex"
)

// Journal receives every mutation before it commits. Implementations
// (wal.ClipJournal) persist the record under their sync policy and
// return only once it is as durable as that policy promises; an error
// aborts the mutation. Calls arrive serialized under the database's
// write lock, so journal order always equals commit order.
type Journal interface {
	// LogIngest records a clip about to become visible.
	LogIngest(rec *ClipRecord) error
	// LogDelete records a removal about to apply.
	LogDelete(name string) error
	// Size reports the journal's current end position. Read under the
	// database lock — which serializes all journal appends — it is the
	// cut point BeginFlush and BeginSnapshot capture: the exact boundary
	// between records a capture holds and records it does not, so
	// rotation can discard precisely the former.
	Size() int64
}

// SetJournal installs (or, with nil, removes) the database's
// write-ahead journal. wal.RecoverAndOpen calls it once its replay is
// done: ImportClipRecord and Remove journal whenever a journal is
// installed, so one installed before replay would re-journal every
// recovered record.
func (db *Database) SetJournal(j Journal) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.journal = j
}

// EncodeClipRecord serializes one clip's analysis state as a one-clip
// segment (id 0, no tombstones): the journal's OpIngest payload and the
// migration payload. The encoding is a pure function of the record, so
// a destination's re-export of an imported clip is byte-identical to
// what was pushed — the comparison online resharding verifies copies by.
func EncodeClipRecord(rec *ClipRecord) ([]byte, error) {
	var buf bytes.Buffer
	if err := segment.Write(&buf, 0, []segment.ClipColumns{clipColumns(rec)}, nil); err != nil {
		return nil, fmt.Errorf("core: encoding clip record: %w", err)
	}
	// Sized to the record: callers hold payloads (a migration's working
	// set, a load generator's corpus), and a grown buffer's spare
	// capacity would stay pinned with each one.
	return bytes.Clone(buf.Bytes()), nil
}

// decodeClipRecord verifies an EncodeClipRecord payload end to end and
// rebuilds the live record and its index entries. Nothing returned
// references payload.
func decodeClipRecord(payload []byte) (*ClipRecord, []varindex.Entry, error) {
	seg, err := segment.OpenBytes(payload)
	if err != nil {
		return nil, nil, fmt.Errorf("core: decoding clip record: %w", err)
	}
	if seg.NumClips() != 1 || len(seg.Tombstones()) != 0 {
		return nil, nil, fmt.Errorf("core: clip record holds %d clips and %d tombstones, want one clip: %w",
			seg.NumClips(), len(seg.Tombstones()), segment.ErrCorrupt)
	}
	return decodeClip(seg, 0)
}

// decodeClip materializes clip idx of seg together with its index
// entries, derived from the shot columns the record itself is built
// from. As the one decode behind import, replay and snapshot, it refuses
// a shot feature outside the index's domain as corruption.
func decodeClip(seg *segment.Reader, idx int) (*ClipRecord, []varindex.Entry, error) {
	c, err := seg.Clip(idx)
	if err != nil {
		return nil, nil, err
	}
	if err := c.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: %w: %w", segment.ErrCorrupt, err)
	}
	rec, err := recordOf(c)
	if err != nil {
		return nil, nil, fmt.Errorf("core: clip %q: %w", c.Name, err)
	}
	return rec, c.Entries(nil), nil
}

// ImportClipRecord decodes an EncodeClipRecord payload and installs the
// clip, journaling it first when a journal is installed. It is the one
// way a clip record enters a database: crash recovery and a replica's
// WAL tail (through wal.ApplyRecord, on a database with no journal yet
// or none at all) and a reshard import (a first-class write the
// receiving node must own durably, so it is journaled like an ingest).
// It is idempotent: re-importing a clip the database already holds
// replaces it and its index entries wholesale, which is what makes
// replay safe after a flush and lets a migration retry after a
// half-applied copy. The payload is fully validated before any state
// changes, so a corrupt record never half-applies.
func (db *Database) ImportClipRecord(payload []byte) (string, error) {
	rec, entries, err := decodeClipRecord(payload)
	if err != nil {
		return "", err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Write-ahead, like IngestContext: the record must be durable before
	// the clip becomes visible.
	if db.journal != nil {
		if jerr := db.journal.LogIngest(rec); jerr != nil {
			return "", fmt.Errorf("core: clip %q: journaling import: %w", rec.Name, jerr)
		}
	}
	db.publishLocked(db.view.Load().withClip(rec, entries))
	return rec.Name, nil
}

// BeginSnapshot captures every live clip — memtable records and
// segment slots alike, in name order — and, if a journal is installed,
// its cut point, under a single read-lock hold: the capture a replica
// bootstraps from.
// Holding the read lock excludes writers, so the captured clips and the
// journal offset describe the same instant; queries, which never take
// the lock, keep flowing. A published view is immutable, so the capture
// shares its refs. WriteSegment encodes it outside any lock, copying
// segment clips column-wise from their segments: nothing is
// materialized, and the clip cache is not touched.
func (db *Database) BeginSnapshot() *PendingFlush {
	db.mu.RLock()
	defer db.mu.RUnlock()
	pf := &PendingFlush{refs: db.view.Load().refs}
	if db.journal != nil {
		pf.cut, pf.hasCut = db.journal.Size(), true
	}
	return pf
}

// ApplySnapshot replaces the database's entire queryable state with the
// clips of a BeginSnapshot segment, bypassing the journal — the bulk
// counterpart of ImportClipRecord. It is the replica bootstrap (and
// re-sync) entry point: a read replica loads a primary's snapshot
// wholesale, then tails its WAL from the cut point the snapshot was
// captured at. The payload is verified and every clip decoded before
// any state changes, and the swap is one copy-on-write view
// publication, so concurrent readers see either the old corpus or the
// new one, never a mix. A zero-length payload is the empty database
// (WriteSegment writes nothing for an empty capture).
func (db *Database) ApplySnapshot(payload []byte) error {
	var names []string
	var refs []clipRef
	ix := varindex.New()
	if len(payload) > 0 {
		seg, err := segment.OpenBytes(payload)
		if err != nil {
			return fmt.Errorf("core: decoding snapshot: %w", err)
		}
		names, refs, _ = compose([]*segment.Reader{seg})
		for i, ref := range refs {
			rec, entries, err := decodeClip(ref.seg, ref.idx)
			if err != nil {
				return err
			}
			refs[i] = clipRef{rec: rec}
			for _, e := range entries {
				ix.Add(e)
			}
		}
	}
	ix.Build()

	db.mu.Lock()
	defer db.mu.Unlock()
	db.publishLocked(&view{epoch: db.view.Load().epoch + 1, names: names, refs: refs, index: ix})
	return nil
}
