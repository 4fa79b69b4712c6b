// Package segstore is the beyond-RAM storage engine: it keeps a
// core.Database's cold tier in immutable, mmap-able columnar segment
// files (internal/segment) under one directory, with a write-ahead
// log for the memtable and a manifest naming the live segments in
// precedence order.
//
//	dir/
//	  MANIFEST          which segments are live, oldest first
//	  seg-00000001.vseg immutable columnar segments
//	  wal.log           journal of mutations since the last flush
//	  LOCK              flock'd by the one process that has the store open
//
// Ingest accumulates in the database's memtable (journaled through
// wal.log); Flush captures the memtable, pending tombstones and the WAL
// cut point under one lock hold, writes them as a new generation-1
// segment through fsx.AtomicWrite, commits it to the manifest, flips
// the captured clips to cold mmap-backed references, and rotates the
// WAL at the cut. A background compactor merges adjacent
// same-generation runs into the next generation, dropping shadowed
// clips and dead tombstones, and republishes through the database's
// atomic view swap — readers pinning old views keep reading the
// unlinked files until they let go.
//
// Crash safety is compositional: segment files and the manifest are
// both footer/checksum-validated and atomically replaced, so a crash
// leaves either the old or the new state of each; the WAL rotates
// only after the manifest commit, and replay is idempotent, so every
// crash window replays into the same state. Orphaned segment files
// from a crashed flush or compaction are deleted at Open — which is only
// safe because Open also makes the caller the directory's one owner.
package segstore

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/fsx"
	"videodb/internal/segment"
	"videodb/internal/wal"
)

// WALName is the journal's file name inside the store directory.
const WALName = "wal.log"

// DefaultFanout is how many adjacent same-generation segments a
// compaction merges when Options.Fanout is zero.
const DefaultFanout = 4

// lockName is the file Open flocks for as long as the store is open.
const lockName = "LOCK"

// ErrLocked reports that another open Store, in this process or
// another, owns the directory.
var ErrLocked = errors.New("directory is in use by another open store")

// Options configures Open.
type Options struct {
	// Core is the database configuration (a segment store does not
	// persist options; each process brings its own).
	Core core.Options
	// Extra applies CLI overrides (parallelism, query cache).
	Extra []core.OpenOption
	// ClipCache bounds the materialized cold-clip cache
	// (0 = core.DefaultClipCache).
	ClipCache int
	// Policy and SyncInterval configure the WAL exactly as vdbserver's
	// -sync flags do.
	Policy       wal.Policy
	SyncInterval time.Duration
	// Fanout is the compaction trigger: an adjacent run of this many
	// same-generation segments merges into one of the next generation
	// (0 = DefaultFanout). Open refuses 1 and negative values: a run of
	// one segment would merge into the next generation forever.
	Fanout int
}

// FlushResult reports one completed flush.
type FlushResult struct {
	// Flushed is false when there was nothing to write.
	Flushed bool
	// SegmentID and Bytes identify the new segment.
	SegmentID uint64
	Bytes     int64
	// Clips and Tombstones count what it holds.
	Clips, Tombstones int
	// Rotated reports whether the WAL was rotated at the capture cut.
	Rotated bool
}

// Stats is a point-in-time summary for health and metrics endpoints.
type Stats struct {
	// Segments and SegmentBytes describe the manifest.
	Segments     int
	SegmentBytes int64
	// MaxGen is the highest compaction generation present.
	MaxGen int
	// Flushes and Compactions count completed operations this process.
	Flushes, Compactions uint64
}

// Store is an open segment-backed database. Flush and compaction
// serialize on the store's own lock; queries and ingest go straight to
// DB() and never take it.
type Store struct {
	dir    string
	db     *core.Database
	j      *wal.ClipJournal
	replay wal.ReplayResult
	fanout int
	lock   *os.File

	mu     sync.Mutex
	man    segment.Manifest
	segs   map[uint64]*segment.Reader
	nflush uint64
	ncomp  uint64

	compactStop chan struct{}
	compactWG   sync.WaitGroup
}

// Open opens (or initializes) the segment store in dir: take the
// directory's lock (ErrLocked if another open Store holds it), load and
// validate the manifest, mmap every live segment, delete orphaned
// segment files from crashed flushes or compactions, compose the
// segments into the database's cold tier, then replay and reopen the
// WAL. The returned store owns the journal and the lock; close it with
// Close after the database has quiesced. A failed Open releases both
// and unmaps what it mapped.
func Open(dir string, opts Options) (_ *Store, err error) {
	fanout := opts.Fanout
	if fanout == 0 {
		fanout = DefaultFanout
	}
	if fanout < 2 {
		return nil, fmt.Errorf("segstore: fanout %d: a compaction run needs at least 2 segments", opts.Fanout)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := lockDir(dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: %s: %w", dir, err)
	}
	var readers []*segment.Reader
	defer func() {
		if err != nil {
			for _, r := range readers {
				r.Close()
			}
			lock.Close()
		}
	}()

	man, err := segment.LoadManifest(dir)
	if err != nil {
		return nil, fmt.Errorf("segstore: %s: %w", dir, err)
	}
	segs := make(map[uint64]*segment.Reader, len(man.Segments))
	for _, si := range man.Segments {
		r, err := segment.Open(filepath.Join(dir, si.File))
		if err != nil {
			return nil, fmt.Errorf("segstore: opening %s: %w", si.File, err)
		}
		readers = append(readers, r)
		if r.ID() != si.ID {
			return nil, fmt.Errorf("segstore: %s: header id %d does not match manifest id %d",
				si.File, r.ID(), si.ID)
		}
		segs[si.ID] = r
	}
	if err := removeOrphans(dir, man); err != nil {
		return nil, err
	}

	db, err := core.Open(opts.Core, opts.Extra...)
	if err != nil {
		return nil, err
	}
	if err := db.ApplySegmentBase(readers, opts.ClipCache); err != nil {
		return nil, err
	}

	s := &Store{
		dir:    dir,
		db:     db,
		fanout: fanout,
		lock:   lock,
		man:    man,
		segs:   segs,
	}
	s.j, s.replay, err = wal.RecoverAndOpen(db, filepath.Join(dir, WALName), opts.Policy, opts.SyncInterval)
	if err != nil {
		return nil, fmt.Errorf("segstore: recovering WAL: %w", err)
	}
	return s, nil
}

// removeOrphans deletes segment files the manifest does not own and
// abandoned AtomicWrite temp files — the debris of a crash between
// writing a segment and committing the manifest.
func removeOrphans(dir string, man segment.Manifest) error {
	live := make(map[string]bool, len(man.Segments))
	for _, si := range man.Segments {
		live[si.File] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		name := e.Name()
		stray := false
		if ok, _ := filepath.Match("seg-*.vseg", name); ok && !live[name] {
			stray = true
		}
		if ok, _ := filepath.Match(".*.tmp-*", name); ok {
			stray = true
		}
		if stray {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// DB returns the database the store backs.
func (s *Store) DB() *core.Database { return s.db }

// Journal returns the store's WAL.
func (s *Store) Journal() *wal.ClipJournal { return s.j }

// Replay reports what WAL recovery did at Open.
func (s *Store) Replay() wal.ReplayResult { return s.replay }

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Manifest returns a copy of the current manifest.
func (s *Store) Manifest() segment.Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.man
	m.Segments = append([]segment.SegmentInfo(nil), s.man.Segments...)
	return m
}

// Stats summarizes the store for health and metrics endpoints.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Segments: len(s.man.Segments), Flushes: s.nflush, Compactions: s.ncomp}
	for _, si := range s.man.Segments {
		st.SegmentBytes += si.Bytes
		if si.Gen > st.MaxGen {
			st.MaxGen = si.Gen
		}
	}
	return st
}

// Flush writes the memtable and pending tombstones as a new
// generation-1 segment and rotates the WAL at the captured cut. The
// publication order makes every crash window recoverable:
//
//  1. capture memtable + tombstones + WAL cut (one lock hold)
//  2. write seg-N.vseg        — crash here: orphan, deleted at Open
//  3. commit MANIFEST         — crash here: WAL replays records ≤ cut
//     over the segment; replay is idempotent
//  4. publish the flip        — in-memory only
//  5. rotate the WAL to cut   — steady state restored
func (s *Store) Flush() (FlushResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pf, err := s.db.BeginFlush()
	if err != nil {
		return FlushResult{}, err
	}
	if pf == nil {
		return FlushResult{}, nil
	}

	r, si, err := s.writeSegment(pf, 1)
	if err != nil {
		return FlushResult{}, err
	}
	next := s.man
	next.Segments = append(slices.Clone(s.man.Segments), si)
	next.NextID = si.ID + 1
	if err := s.commitManifest(next, r); err != nil {
		return FlushResult{}, err
	}

	if err := s.db.CompleteFlush(pf, r); err != nil {
		return FlushResult{}, err
	}
	res := FlushResult{
		Flushed: true, SegmentID: si.ID, Bytes: si.Bytes,
		Clips: si.Clips, Tombstones: si.Tombs,
	}
	if cut, ok := pf.JournalCut(); ok {
		if err := s.j.RotateTo(cut); err != nil {
			return res, fmt.Errorf("segstore: rotating WAL: %w", err)
		}
		res.Rotated = true
	}
	s.nflush++
	return res, nil
}

// writeSegment writes pf through fsx.AtomicWrite as the store's next
// segment, of generation gen, and maps it back. It returns the reader
// and the manifest entry that adopts it; a failed write leaves no
// file. Called under s.mu.
func (s *Store) writeSegment(pf *core.PendingFlush, gen int) (*segment.Reader, segment.SegmentInfo, error) {
	id := s.man.NextID
	si := segment.SegmentInfo{
		File: segment.SegmentFileName(id), ID: id, Gen: gen,
		Clips: pf.Clips(), Tombs: pf.Tombstones(),
	}
	path := filepath.Join(s.dir, si.File)
	n, err := fsx.AtomicWrite(path, func(w io.Writer) error {
		return pf.WriteSegment(w, id)
	})
	if err != nil {
		return nil, si, fmt.Errorf("segstore: writing segment %d: %w", id, err)
	}
	r, err := segment.Open(path)
	if err != nil {
		os.Remove(path)
		return nil, si, fmt.Errorf("segstore: reopening segment %d: %w", id, err)
	}
	si.Shots, si.Bytes = r.NumShots(), n
	return r, si, nil
}

// commitManifest atomically replaces MANIFEST and adopts next, which
// names added (nil when the edit adds no segment) as a live segment.
// If the commit fails, added is unmapped and its file removed. Called
// under s.mu.
func (s *Store) commitManifest(next segment.Manifest, added *segment.Reader) error {
	err := next.Validate()
	if err == nil {
		_, err = fsx.AtomicWrite(filepath.Join(s.dir, segment.ManifestName), func(w io.Writer) error {
			return segment.EncodeManifest(w, next)
		})
	}
	if err != nil {
		if added != nil {
			added.Close()
			os.Remove(added.Path())
		}
		return fmt.Errorf("segstore: committing manifest: %w", err)
	}
	s.man = next
	if added != nil {
		s.segs[added.ID()] = added
	}
	return nil
}

// compactionRun finds the first adjacent run of at least fanout
// same-generation segments, oldest-first. Returns start index and run
// length (0,0 when nothing qualifies).
func (s *Store) compactionRun() (int, int) {
	segs := s.man.Segments
	for i := 0; i < len(segs); {
		j := i + 1
		for j < len(segs) && segs[j].Gen == segs[i].Gen {
			j++
		}
		if j-i >= s.fanout {
			return i, j - i
		}
		i = j
	}
	return 0, 0
}

// CompactOnce merges one qualifying run of adjacent same-generation
// segments into a single next-generation segment, commits the manifest
// with the run replaced in place (order — and therefore precedence —
// preserved), repoints the database's cold references, and unlinks the
// superseded files. Views still pinning the old readers keep reading
// the unlinked files until they are dropped. Returns false when no run
// qualifies.
func (s *Store) CompactOnce() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start, n := s.compactionRun()
	if n == 0 {
		return false, nil
	}
	run := s.man.Segments[start : start+n]
	readers := make([]*segment.Reader, n)
	oldIDs := make([]uint64, n)
	for i, si := range run {
		readers[i], oldIDs[i] = s.segs[si.ID], si.ID
	}
	pf := core.Compaction(readers, start > 0)

	var merged *segment.Reader
	next := s.man
	next.Segments = slices.Clone(s.man.Segments[:start])
	if pf != nil {
		r, si, err := s.writeSegment(pf, run[0].Gen+1)
		if err != nil {
			return false, err
		}
		merged = r
		next.Segments = append(next.Segments, si)
		next.NextID = si.ID + 1
	}
	next.Segments = append(next.Segments, s.man.Segments[start+n:]...)
	if err := s.commitManifest(next, merged); err != nil {
		return false, err
	}
	if err := s.db.SwapSegments(oldIDs, merged); err != nil {
		return false, err
	}
	// Unlink the superseded files. No Close: views may still pin the
	// readers; the mappings outlive the unlink and the finalizer unmaps
	// them once the last view lets go.
	for _, id := range oldIDs {
		os.Remove(filepath.Join(s.dir, segment.SegmentFileName(id)))
		delete(s.segs, id)
	}
	fsx.SyncDir(s.dir)
	s.ncomp++
	return true, nil
}

// Compact runs CompactOnce until no run qualifies, cascading merged
// segments up the generations. Returns how many merges ran.
func (s *Store) Compact() (int, error) {
	n := 0
	for {
		did, err := s.CompactOnce()
		if err != nil {
			return n, err
		}
		if !did {
			return n, nil
		}
		n++
	}
}

// StartCompactor runs Compact in the background every interval until
// Close. Errors are reported through onErr (nil ignores them).
func (s *Store) StartCompactor(interval time.Duration, onErr func(error)) {
	if s.compactStop != nil {
		return
	}
	s.compactStop = make(chan struct{})
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.compactStop:
				return
			case <-t.C:
				if _, err := s.Compact(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
}

// Close stops the background compactor, closes the WAL and then
// releases the directory lock. Segment mappings are left to outstanding
// views and their finalizers; the caller must have quiesced reads if it
// intends to unmap eagerly.
func (s *Store) Close() error {
	if s.compactStop != nil {
		close(s.compactStop)
		s.compactWG.Wait()
		s.compactStop = nil
	}
	err := s.j.Close()
	if s.lock != nil {
		err = errors.Join(err, s.lock.Close())
		s.lock = nil
	}
	return err
}
