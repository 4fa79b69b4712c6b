package wal

import (
	"errors"
	"fmt"
	"time"

	"videodb/internal/core"
)

// ClipJournal is the Writer a core.Database journals through: ingests
// append the clip's one-clip segment, deletes append the clip name, and
// the promoted Size is the cut point core.Database.BeginFlush and
// BeginSnapshot capture. RecoverAndOpen installs it on the database.
type ClipJournal struct{ *Writer }

// NewClipJournal wraps an open journal writer.
func NewClipJournal(w *Writer) *ClipJournal { return &ClipJournal{w} }

// LogIngest appends one ingested clip's analysis state.
func (j *ClipJournal) LogIngest(rec *core.ClipRecord) error {
	data, err := core.EncodeClipRecord(rec)
	if err != nil {
		return err
	}
	return j.Append(OpIngest, data)
}

// LogDelete appends one removal.
func (j *ClipJournal) LogDelete(name string) error {
	return j.Append(OpDelete, []byte(name))
}

// ApplyRecord applies one decoded record to db through the database's
// one way in for a clip record: OpIngest calls ImportClipRecord, OpDelete
// calls Remove. Both are idempotent — deleting a clip db does not hold
// is not an error — so a record that replays over state a segment
// already holds changes nothing. Recovery and the replica catch-up loop
// both go through here, on a database with no journal installed, so a
// streamed record and a locally recovered one are applied identically
// and neither is journaled again. An error means the record decodes to
// garbage, which is indistinguishable from disk corruption the CRC
// happened to miss.
func ApplyRecord(db *core.Database, r Record) error {
	switch r.Op {
	case OpIngest:
		_, err := db.ImportClipRecord(r.Data)
		return err
	case OpDelete:
		if err := db.Remove(string(r.Data)); err != nil && !errors.Is(err, core.ErrNotFound) {
			return err
		}
		return nil
	default:
		return fmt.Errorf("wal: unknown op %d", r.Op)
	}
}

// RecoverDatabase replays the journal at path into db, which must have
// no journal installed, truncating the file at the first torn or
// corrupt record — including records whose frame verifies but whose
// payload does not decode to valid clip state. It never fails on
// corruption, only on real I/O errors and on a journal of another
// format version (ErrVersion, file untouched); the result says how much
// was recovered and how much was cut.
func RecoverDatabase(db *core.Database, path string) (ReplayResult, error) {
	return recoverFile(path, func(r Record) error { return ApplyRecord(db, r) })
}

// RecoverAndOpen is the startup sequence of every durable process:
// replay the journal into db (truncating any torn tail), reopen it for
// appending under the given sync policy, and install it as db's
// journal. It is the one place a journal is installed, and it installs
// it only after the replay, so no recovered record is journaled again.
func RecoverAndOpen(db *core.Database, path string, policy Policy, interval time.Duration) (*ClipJournal, ReplayResult, error) {
	res, err := RecoverDatabase(db, path)
	if err != nil {
		return nil, res, err
	}
	w, err := OpenWriter(path, policy, interval)
	if err != nil {
		return nil, res, err
	}
	j := NewClipJournal(w)
	db.SetJournal(j)
	return j, res, nil
}
