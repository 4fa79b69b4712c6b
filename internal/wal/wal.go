// Package wal is the write-ahead journal of the video database: an
// append-only file of length-prefixed, CRC32C-checksummed, versioned
// mutation records that makes every acknowledged Ingest and Delete
// survive a crash between segment flushes.
//
// File layout (all integers little-endian):
//
//	magic   "VDBW"             4 bytes
//	version uint16             currently 2
//	records ...                until EOF
//
// Each record:
//
//	length  uint32             len(payload), ≤ MaxRecord
//	crc     uint32             CRC32C (Castagnoli) of payload
//	payload [version u8][op u8][data ...]
//
// The reader (Replay) verifies each frame and stops at the first torn
// or corrupt record, reporting the longest valid prefix; RecoverDatabase
// additionally truncates the file back to that prefix so the journal
// can be appended to again. A journal of this version is therefore
// never "unreadable": any crash — mid-record, mid-length-word, even
// mid-header — loses at most the un-synced tail, never the records
// before it. A journal of another version is not damage and is never
// repaired: every entry point refuses it with ErrVersion and leaves the
// file as it found it.
//
// The Writer offers three sync policies: PolicyAlways fsyncs after
// every append (no acknowledged mutation is ever lost), PolicyInterval
// fsyncs from a background ticker (bounded loss window), PolicyNone
// leaves flushing to the OS (process-crash safe, power-loss unsafe).
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"videodb/internal/fsx"
)

// Magic identifies a journal file.
const Magic = "VDBW"

// Version is the current journal file-format version. Version 1
// carried gob-encoded clip records; version 2 carries one-clip segments
// (core.EncodeClipRecord).
const Version = 2

// ErrVersion reports a journal whose header is intact but names a
// file-format version this build does not read; match it with
// errors.Is. Unlike a torn tail it is never truncated away: the records
// behind it were acknowledged, only by another build.
var ErrVersion = errors.New("wal: unsupported journal version")

// recordVersion is the per-record payload version byte.
const recordVersion = 1

// MaxRecord bounds one record's payload; a length word above it is
// corruption (and caps what a reader will allocate for a frame).
const MaxRecord = 256 << 20

// headerSize is the file header length: magic + uint16 version.
const headerSize = 6

// frameHeaderSize is the per-record frame header: length + CRC words.
const frameHeaderSize = 8

// castagnoli is the CRC32C table (the polynomial with hardware support
// on both amd64 and arm64, and the conventional choice for storage
// checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Mutation op codes carried in each record's payload.
const (
	// OpIngest records one ingested clip; the data is the one-clip
	// segment core.EncodeClipRecord produces.
	OpIngest byte = 1
	// OpDelete records a removal; the data is the clip name.
	OpDelete byte = 2
)

// Policy selects when appends reach stable storage.
type Policy int

const (
	// PolicyAlways fsyncs after every append, inside the mutation's
	// critical section: an acknowledged write is on disk.
	PolicyAlways Policy = iota
	// PolicyInterval fsyncs from a background ticker; a crash loses at
	// most one interval of acknowledged writes.
	PolicyInterval
	// PolicyNone never fsyncs explicitly; the OS flushes when it
	// pleases. Survives a process crash, not a power loss.
	PolicyNone
)

// ParsePolicy maps the CLI spellings (always|interval|none) to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return PolicyAlways, nil
	case "interval":
		return PolicyInterval, nil
	case "none":
		return PolicyNone, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or none)", s)
}

func (p Policy) String() string {
	switch p {
	case PolicyAlways:
		return "always"
	case PolicyInterval:
		return "interval"
	case PolicyNone:
		return "none"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// File is the slice of *os.File the writer needs; tests slide an
// fsx.FaultFile underneath to kill writes mid-record or fail fsyncs.
// ReadAt is what RotateTo uses to carry records appended after a
// flush's cut point into the fresh journal.
type File interface {
	io.Writer
	io.Seeker
	io.ReaderAt
	Sync() error
	Truncate(size int64) error
	Close() error
}

// Stats is a point-in-time snapshot of a Writer's lifetime counters
// (the /api/metrics source).
type Stats struct {
	// Records is the number of records appended by this writer.
	Records int64
	// Bytes is the journal file's current length, header included.
	Bytes int64
	// Fsyncs is the number of successful fsyncs.
	Fsyncs int64
	// FsyncSeconds is the total wall-clock time spent in fsync.
	FsyncSeconds float64
	// Rotations is the number of successful Rotate calls.
	Rotations int64
}

// Writer appends records to a journal. It is safe for concurrent use;
// in practice core.Database serializes appends under its write lock so
// journal order always equals commit order.
type Writer struct {
	mu      sync.Mutex
	f       File
	path    string // backing file path; "" for NewWriter-wrapped test files
	size    int64  // file length
	base    int64  // position of file offset 0: bytes rotated away since open
	gen     string // fixed at open, see Gen
	dirty   bool
	err     error // sticky: after a failed append the tail is suspect
	stats   Stats
	policy  Policy
	stopc   chan struct{}
	stopped sync.WaitGroup
}

// OpenWriter opens (creating if needed) the journal at path for
// appending. A zero-length file gets a fresh header; an existing file
// must carry a valid header — run RecoverDatabase first to repair a torn
// one.
// With PolicyInterval, interval bounds the background fsync cadence
// (≤0 means one second).
func OpenWriter(path string, policy Policy, interval time.Duration) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() > 0 && st.Size() < headerSize {
		// A crash torn the header itself; nothing after it can be valid.
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, err
		}
	} else if st.Size() >= headerSize {
		hdr := make([]byte, headerSize)
		if _, err := f.ReadAt(hdr, 0); err != nil {
			f.Close()
			return nil, err
		}
		if string(hdr[:4]) != Magic {
			f.Close()
			return nil, fmt.Errorf("wal: %s is not a journal (magic %q)", path, hdr[:4])
		}
		if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
			f.Close()
			return nil, fmt.Errorf("%w: %s is version %d, this build reads %d", ErrVersion, path, v, Version)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	st, _ = f.Stat()
	return newWriter(f, path, st.Size(), policy, interval)
}

// NewWriter wraps an already-positioned File (tests use a FaultFile
// over a temp file). size is the file's current length; a zero size
// writes a fresh header.
func NewWriter(f File, size int64, policy Policy, interval time.Duration) (*Writer, error) {
	return newWriter(f, "", size, policy, interval)
}

func newWriter(f File, path string, size int64, policy Policy, interval time.Duration) (*Writer, error) {
	w := &Writer{f: f, path: path, size: size, policy: policy, gen: fmt.Sprintf("%x", time.Now().UnixNano())}
	if size == 0 {
		if err := w.writeLocked(binary.LittleEndian.AppendUint16([]byte(Magic), Version)); err != nil {
			f.Close()
			return nil, err
		}
		if err := w.syncLocked(); err != nil {
			f.Close()
			return nil, err
		}
	}
	if policy == PolicyInterval {
		if interval <= 0 {
			interval = time.Second
		}
		w.stopc = make(chan struct{})
		w.stopped.Add(1)
		go w.flushLoop(interval)
	}
	return w, nil
}

// Append writes one record and applies the sync policy. On any write
// or fsync error the failed record is rolled back — the file is
// truncated to its pre-append size and the truncation synced — so a
// mutation rejected to the client can never reach a later replay
// through bytes the page cache flushed anyway. The writer then goes
// sticky-failed: the device is suspect, so further appends are refused
// with the same error until the journal is recovered and reopened.
func (w *Writer) Append(op byte, data []byte) error {
	if len(data) > MaxRecord-2 {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecord", len(data))
	}
	payload := make([]byte, 0, 2+len(data))
	payload = append(payload, recordVersion, op)
	payload = append(payload, data...)
	frame := make([]byte, 0, frameHeaderSize+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
	frame = append(frame, payload...)

	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	start := w.size
	if err := w.writeLocked(frame); err != nil {
		w.rollbackLocked(start)
		return err
	}
	if w.policy == PolicyAlways {
		if err := w.syncLocked(); err != nil {
			w.rollbackLocked(start)
			return err
		}
	}
	w.stats.Records++
	return nil
}

func (w *Writer) writeLocked(b []byte) error {
	n, err := w.f.Write(b)
	w.size += int64(n)
	if err == nil && n != len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = fmt.Errorf("wal: append failed, journal tail suspect: %w", err)
		return w.err
	}
	w.dirty = true
	return nil
}

// rollbackLocked tries to erase a failed append so the rejected record
// cannot resurface in a future replay: truncate back to the pre-append
// size, re-seek, and push the truncation to disk. Best effort — if any
// step fails the tail stays suspect and the sticky error (already set
// by the caller's failure) keeps refusing appends until RecoverDatabase
// repairs the file; its CRC check then discards the torn record.
func (w *Writer) rollbackLocked(to int64) {
	if err := w.f.Truncate(to); err != nil {
		return
	}
	if _, err := w.f.Seek(to, io.SeekStart); err != nil {
		return
	}
	w.size = to
	if err := w.f.Sync(); err != nil {
		return
	}
	w.dirty = false
}

func (w *Writer) syncLocked() error {
	if !w.dirty {
		return nil
	}
	t0 := time.Now()
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: fsync failed, journal tail suspect: %w", err)
		return w.err
	}
	w.stats.FsyncSeconds += time.Since(t0).Seconds()
	w.stats.Fsyncs++
	w.dirty = false
	return nil
}

// Sync forces the journal to stable storage regardless of policy.
func (w *Writer) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return w.syncLocked()
}

// Size returns the journal's current position: the bytes this writer
// has rotated away plus the file's length, header included. A position
// only grows for the life of the writer, so it stays valid across
// RotateTo. Read it at the same instant a flush's state is captured
// (under the database lock that serializes appends) and it is a cut
// point for RotateTo: every record below it is in that capture, every
// record at or above it is not.
func (w *Writer) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.base + w.size
}

// ErrBadCut reports a TailFrom position that is not a record boundary
// this writer still holds — inside a prefix already rotated away, or
// beyond the journal's end. A streaming replica receiving it must
// re-bootstrap from a fresh snapshot; match it with errors.Is.
var ErrBadCut = errors.New("wal: position is not a cut point of this journal")

// Gen identifies the writer: a token fixed when it opens, so two equal
// Gen values name the same position space. Positions of two writers —
// the primary restarted — are not comparable, so the WAL-shipping
// protocol pairs each position with the Gen it was read under and
// rejects streams whose generation differs.
func (w *Writer) Gen() string { return w.gen }

// TailFrom reads up to max bytes of the journal starting at position
// from, returning the chunk and the journal's current position. from
// must lie on a record boundary the file still holds — any Size() value
// observed since the last RotateTo qualifies, as does the cut of that
// rotation; headerSize is "every record" until the first rotation. A
// caught-up reader (from == Size()) gets an empty chunk. Serving reads
// under the writer lock means a chunk never ends mid-append, so every
// returned byte range is a whole number of records.
//
// This is the primary side of WAL shipping: a replica polls TailFrom
// (over GET /api/replication/wal) and replays the chunks through
// ReplayRecords. Note the durability caveat: TailFrom serves appended
// bytes regardless of whether they have been fsynced, so under
// PolicyInterval/PolicyNone a replica can briefly hold records a
// primary power-loss then forgets (see docs/CLUSTER.md).
func (w *Writer) TailFrom(from int64, max int) (data []byte, size int64, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return nil, 0, w.err
	}
	size = w.base + w.size
	off := from - w.base
	if off < headerSize || off > w.size {
		return nil, size, fmt.Errorf("%w: from=%d, held %d..%d", ErrBadCut, from, w.base+headerSize, size)
	}
	n := min(w.size-off, int64(max))
	if n == 0 {
		return nil, size, nil
	}
	data = make([]byte, n)
	if _, err := w.f.ReadAt(data, off); err != nil {
		return nil, size, fmt.Errorf("wal: reading tail at %d: %w", from, err)
	}
	return data, size, nil
}

// RotateTo discards exactly the journal prefix a flush captured — cut
// is the Size() observed at capture time — while keeping every record
// appended after it; positions are unchanged. With no tail the file
// is truncated back to a bare header in place; with a tail it is
// rewritten as header + tail through an atomic replace (temp file,
// fsync, rename, directory fsync), so a crash at any instant leaves
// either the old complete journal (replay re-applies records the
// segment already holds — idempotent) or the new one, never a torn mix.
// A pathless writer (NewWriter) can only rotate an empty tail.
func (w *Writer) RotateTo(cut int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	off := cut - w.base
	if off > w.size {
		return fmt.Errorf("wal: rotate cut %d beyond journal position %d", cut, w.base+w.size)
	}
	if off < headerSize {
		// A cut inside the header or an already rotated prefix can only
		// mean "nothing more was captured"; keep every record.
		off = headerSize
	}
	if off == w.size {
		_, err := w.f.Seek(headerSize, io.SeekStart)
		if err == nil {
			err = w.f.Truncate(headerSize)
		}
		if err != nil {
			w.err = fmt.Errorf("wal: rotate failed: %w", err)
			return w.err
		}
		w.dirty = true
		if err := w.syncLocked(); err != nil {
			return err
		}
	} else {
		if w.path == "" {
			return fmt.Errorf("wal: rotate: a pathless writer cannot keep a %d-byte tail", w.size-off)
		}
		tail := make([]byte, w.size-off)
		if _, err := w.f.ReadAt(tail, off); err != nil {
			// Nothing was modified; the journal is intact and rotation
			// simply did not happen.
			return fmt.Errorf("wal: rotate: reading post-snapshot tail: %w", err)
		}
		if err := w.replaceLocked(tail); err != nil {
			w.err = fmt.Errorf("wal: rotate failed: %w", err)
			return w.err
		}
	}
	w.base += off - headerSize
	w.size -= off - headerSize
	w.stats.Rotations++
	return nil
}

// replaceLocked atomically replaces the journal file with header +
// tail and points the writer at the new inode. Any failure past the
// rename would leave the fd diverging from the path a recovery will
// read, so the caller makes every error sticky.
func (w *Writer) replaceLocked(tail []byte) error {
	if _, err := fsx.AtomicWrite(w.path, func(out io.Writer) error {
		hdr := binary.LittleEndian.AppendUint16([]byte(Magic), Version)
		if _, err := out.Write(hdr); err != nil {
			return err
		}
		_, err := out.Write(tail)
		return err
	}); err != nil {
		return err
	}
	nf, err := os.OpenFile(w.path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return err
	}
	w.f.Close() // old inode, already renamed away
	w.f = nf
	w.dirty = false
	return nil
}

// Stats returns the writer's lifetime counters and current size.
func (w *Writer) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := w.stats
	st.Bytes = w.size
	return st
}

// Err reports the sticky failure, if any.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close stops the background flusher, syncs once more and closes the
// file.
func (w *Writer) Close() error {
	if w.stopc != nil {
		close(w.stopc)
		w.stopped.Wait()
		w.stopc = nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var firstErr error
	if w.err == nil {
		firstErr = w.syncLocked()
	}
	if err := w.f.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

func (w *Writer) flushLoop(interval time.Duration) {
	defer w.stopped.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stopc:
			return
		case <-t.C:
			w.mu.Lock()
			if w.err == nil && w.dirty {
				// Best effort: the sticky error also fails the next
				// Append, which is where the caller can act on it.
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		}
	}
}

// Record is one decoded journal record.
type Record struct {
	// Op is the mutation op code (OpIngest, OpDelete).
	Op byte
	// Data is the op payload (one-clip segment, or clip name bytes).
	// It aliases a buffer Replay reuses between records: it is valid
	// only until the apply callback returns — copy it to retain it.
	Data []byte
}

// ReplayResult describes what a Replay (or RecoverDatabase) found.
type ReplayResult struct {
	// Records is the number of valid records replayed.
	Records int
	// ValidBytes is the length of the longest valid prefix, header
	// included.
	ValidBytes int64
	// TotalBytes is the input length actually seen; for RecoverDatabase,
	// the journal's length before any cut.
	TotalBytes int64
	// Damaged reports that the input ended in a torn or corrupt record
	// (TotalBytes > ValidBytes).
	Damaged bool
	// Reason says what stopped the replay when Damaged.
	Reason string
}

// TruncatedBytes is the tail length a damaged journal loses: for
// RecoverDatabase, everything it cut.
func (r ReplayResult) TruncatedBytes() int64 { return r.TotalBytes - r.ValidBytes }

// Replay streams records from r, calling apply for each valid record in
// order. It stops — without error — at the first torn or corrupt
// frame, reporting the longest valid prefix; arbitrary garbage input
// yields a result, never a panic. An intact header naming another
// format version is an error (ErrVersion), not damage. An apply error
// aborts the replay and is returned (the journal itself may be fine;
// the state is not).
// The Record passed to apply shares Replay's reused payload buffer:
// its Data is overwritten by the next record, so apply must finish
// with (or copy) the bytes before returning.
func Replay(r io.Reader, apply func(Record) error) (ReplayResult, error) {
	var res ReplayResult
	damaged := func(reason string) (ReplayResult, error) {
		res.Damaged = true
		res.Reason = reason
		return res, nil
	}

	hdr := make([]byte, headerSize)
	n, err := io.ReadFull(r, hdr)
	res.TotalBytes = int64(n)
	if n == 0 && (err == io.EOF || err == io.ErrUnexpectedEOF) {
		return res, nil // empty journal: nothing recorded yet
	}
	if err == io.ErrUnexpectedEOF {
		return damaged("torn file header")
	}
	if err != nil {
		return res, fmt.Errorf("wal: reading header: %w", err)
	}
	if string(hdr[:4]) != Magic {
		return damaged(fmt.Sprintf("bad magic %q", hdr[:4]))
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != Version {
		return res, fmt.Errorf("%w: file is version %d, this build reads %d", ErrVersion, v, Version)
	}
	res.ValidBytes = headerSize
	return replayRecords(r, apply, res)
}

// ReplayRecords is Replay for a headerless stream of records — the
// byte ranges Writer.TailFrom serves, which start at a record boundary
// past the file header. The same damage taxonomy applies: a torn or
// corrupt frame stops the replay without error, and ValidBytes reports
// the longest valid prefix of the stream (relative to its start, since
// there is no header). The replication path uses it to apply shipped
// WAL chunks; a Damaged result there means a torn stream, and the
// replica must restart from its last acknowledged cut.
func ReplayRecords(r io.Reader, apply func(Record) error) (ReplayResult, error) {
	return replayRecords(r, apply, ReplayResult{})
}

// replayRecords consumes frames from r until EOF, damage, or an apply
// error, extending res.
func replayRecords(r io.Reader, apply func(Record) error, res ReplayResult) (ReplayResult, error) {
	damaged := func(reason string) (ReplayResult, error) {
		res.Damaged = true
		res.Reason = reason
		return res, nil
	}

	frame := make([]byte, frameHeaderSize)
	var payload []byte
	for {
		n, err := io.ReadFull(r, frame)
		res.TotalBytes += int64(n)
		if err == io.EOF {
			return res, nil // clean end on a record boundary
		}
		if err == io.ErrUnexpectedEOF {
			return damaged("torn record header")
		}
		if err != nil {
			return res, fmt.Errorf("wal: reading record header: %w", err)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		wantCRC := binary.LittleEndian.Uint32(frame[4:8])
		if length < 2 || length > MaxRecord {
			return damaged(fmt.Sprintf("implausible record length %d", length))
		}
		if cap(payload) < int(length) {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		n, err = io.ReadFull(r, payload)
		res.TotalBytes += int64(n)
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return damaged("torn record payload")
		}
		if err != nil {
			return res, fmt.Errorf("wal: reading record payload: %w", err)
		}
		if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
			return damaged(fmt.Sprintf("record %d checksum mismatch (file %08x, computed %08x)", res.Records, wantCRC, got))
		}
		if payload[0] != recordVersion {
			return damaged(fmt.Sprintf("record %d has unsupported version %d", res.Records, payload[0]))
		}
		rec := Record{Op: payload[1], Data: payload[2:]}
		if apply != nil {
			if err := apply(rec); err != nil {
				return res, fmt.Errorf("wal: applying record %d: %w", res.Records, err)
			}
		}
		res.Records++
		res.ValidBytes = res.TotalBytes
	}
}

// recoverFile replays the journal at path into apply and, if the file
// ends in a torn or corrupt record, truncates it back to the longest
// valid prefix so a Writer can append again; the result's TotalBytes is
// the file's length before the cut, so TruncatedBytes counts every byte
// removed. A record apply refuses counts as damage too: the replay
// stops there and the journal is cut before it. A missing file is an
// empty journal. Recovery never fails on corruption — only on I/O
// errors or a journal of another format version (ErrVersion), which is
// left untouched.
func recoverFile(path string, apply func(Record) error) (ReplayResult, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if os.IsNotExist(err) {
		return ReplayResult{}, nil
	}
	if err != nil {
		return ReplayResult{}, err
	}
	defer f.Close()
	var refused error
	res, err := Replay(f, func(r Record) error {
		if apply == nil {
			return nil
		}
		refused = apply(r)
		return refused
	})
	if refused != nil {
		// The frame was intact but the payload was not a valid mutation:
		// same stance as a checksum failure — keep the prefix, cut the rest.
		res.Damaged = true
		res.Reason = fmt.Sprintf("record %d undecodable: %v", res.Records, refused)
		err = nil
	}
	if err != nil || !res.Damaged {
		return res, err
	}
	st, err := f.Stat()
	if err != nil {
		return res, err
	}
	res.TotalBytes = st.Size()
	if err := f.Truncate(res.ValidBytes); err != nil {
		return res, fmt.Errorf("wal: truncating torn tail: %w", err)
	}
	if err := f.Sync(); err != nil {
		return res, fmt.Errorf("wal: syncing truncation: %w", err)
	}
	return res, nil
}
