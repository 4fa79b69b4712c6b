package wal

import (
	"fmt"
	"os"
	"time"

	"videodb/internal/core"
)

// ClipJournal adapts a Writer to core.Journal: ingests append the
// clip's one-clip segment, deletes append the clip name. It is the
// piece segstore hands to core.Database.SetJournal.
type ClipJournal struct {
	w *Writer
}

// NewClipJournal wraps an open journal writer.
func NewClipJournal(w *Writer) *ClipJournal { return &ClipJournal{w: w} }

// LogIngest appends one ingested clip's analysis state.
func (j *ClipJournal) LogIngest(rec *core.ClipRecord) error {
	data, err := core.EncodeClipRecord(rec)
	if err != nil {
		return err
	}
	return j.w.Append(OpIngest, data)
}

// LogDelete appends one removal.
func (j *ClipJournal) LogDelete(name string) error {
	return j.w.Append(OpDelete, []byte(name))
}

// CutPoint reports the journal's current end offset, implementing
// core.SnapshotCutter: core.Database.BeginFlush and BeginSnapshot read
// it under the same lock hold that captures the state, making it a
// valid RotateTo cut.
func (j *ClipJournal) CutPoint() int64 { return j.w.Size() }

// RotateTo discards the journal prefix at or below cut — the records a
// flush begun at that cut captured — and keeps everything after it.
func (j *ClipJournal) RotateTo(cut int64) error { return j.w.RotateTo(cut) }

// Sync forces the journal to stable storage.
func (j *ClipJournal) Sync() error { return j.w.Sync() }

// Gen is the journal's current generation token (see Writer.Gen): the
// scope within which cut points are comparable.
func (j *ClipJournal) Gen() string { return j.w.Gen() }

// StreamFrom reads up to max bytes of whole records starting at cut —
// the primary side of WAL shipping (see Writer.TailFrom).
func (j *ClipJournal) StreamFrom(cut int64, max int) (data []byte, size int64, gen string, err error) {
	return j.w.TailFrom(cut, max)
}

// Close syncs and closes the journal.
func (j *ClipJournal) Close() error { return j.w.Close() }

// Stats returns the underlying writer's counters.
func (j *ClipJournal) Stats() Stats { return j.w.Stats() }

// ApplyRecord replays one decoded record into db through the
// idempotent replay entry points (ApplyIngestRecord/ApplyDelete),
// bypassing db's own journal. Recovery and the replica catch-up loop
// both go through here, so a streamed record and a locally recovered
// one are applied identically.
func ApplyRecord(db *core.Database, r Record) error { return apply(db, r) }

// apply replays one record into db. A record that decodes to garbage
// is indistinguishable from disk corruption the CRC happened to miss,
// so the caller treats its error as a truncation point, not a fatal
// condition.
func apply(db *core.Database, r Record) error {
	switch r.Op {
	case OpIngest:
		_, err := db.ApplyIngestRecord(r.Data)
		return err
	case OpDelete:
		db.ApplyDelete(string(r.Data))
		return nil
	default:
		return fmt.Errorf("wal: unknown op %d", r.Op)
	}
}

// RecoverDatabase replays the journal at path into db, truncating the
// file at the first torn or corrupt record — including records whose
// frame verifies but whose payload does not decode to valid clip
// state. It never fails on corruption, only on real I/O errors and on a
// journal of another format version (ErrVersion, file untouched); the
// result says how much was recovered and how much was cut.
func RecoverDatabase(db *core.Database, path string) (ReplayResult, error) {
	var applyErr error
	res, err := Recover(path, func(r Record) error {
		if aerr := apply(db, r); aerr != nil {
			applyErr = aerr
			return aerr
		}
		return nil
	})
	if applyErr != nil {
		// The frame was intact but the payload was not a valid mutation:
		// same recovery stance as a checksum failure — keep the prefix,
		// cut the rest. Replay aborted before truncating, so cut here.
		res.Damaged = true
		res.Reason = fmt.Sprintf("record %d undecodable: %v", res.Records, applyErr)
		if terr := truncateTo(path, res.ValidBytes); terr != nil {
			return res, terr
		}
		return res, nil
	}
	return res, err
}

// truncateTo cuts the journal file to size and syncs the cut.
func truncateTo(path string, size int64) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.Truncate(size); err != nil {
		return err
	}
	return f.Sync()
}

// RecoverAndOpen is the startup sequence of every durable process:
// replay the journal into db (truncating any torn tail), then reopen
// it for appending under the given sync policy, ready for SetJournal.
func RecoverAndOpen(db *core.Database, path string, policy Policy, interval time.Duration) (*ClipJournal, ReplayResult, error) {
	res, err := RecoverDatabase(db, path)
	if err != nil {
		return nil, res, err
	}
	w, err := OpenWriter(path, policy, interval)
	if err != nil {
		return nil, res, err
	}
	return NewClipJournal(w), res, nil
}
