// Segment-store publication: the primitives internal/segstore drives
// to keep a database's cold tier in mmap'd immutable segments.
//
//	ApplySegmentBase   — install the composed segment state at open,
//	                     before WAL replay;
//	BeginFlush         — capture the memtable, pending tombstones and
//	                     the WAL cut point under one lock hold;
//	BeginSnapshot      — capture every live clip and the WAL cut point
//	                     (durability.go);
//	Compaction         — capture the composition of a run of segments;
//	PendingFlush.WriteSegment — encode any capture as a segment file;
//	CompleteFlush      — flip the captured clips memtable→cold by
//	                     pointer identity, keeping anything re-ingested
//	                     or deleted since the capture;
//	SwapSegments       — atomically repoint cold references from
//	                     compacted segments to their replacement.
//
// What a stack of segments means is stated once, in compose; open,
// replica bootstrap and compaction all go through it.
//
// ApplySegmentBase, CompleteFlush and SwapSegments publish through the
// same copy-on-write view swap as ingest and delete, so readers never
// observe a half-applied flush, and the similarity index is untouched
// by flush and compaction — moving a clip between tiers changes where
// its record lives, not its entries.
//
// Tombstone discipline: once a segment base is installed, every
// delete (Remove) records the name as a pending
// tombstone. The next flush writes the pending set into its segment,
// deleting the name from all strictly older segments at the next open;
// tombstones for names no older segment holds are harmless. A
// tombstone leaves the pending set only when a flush that captured it
// completes.

package core

import (
	"fmt"
	"io"
	"slices"

	"videodb/internal/segment"
	"videodb/internal/varindex"
)

// storeState is the database's segment-store bookkeeping, active only
// after ApplySegmentBase. Guarded by db.mu.
type storeState struct {
	// enabled gates tombstone tracking and the flush primitives.
	enabled bool
	// tombs holds names deleted since the last completed flush.
	tombs map[string]struct{}
	// cache is the shared cold-clip materialization cache.
	cache *clipCache
}

// compose is the one statement of what a segment stack means. segs
// run oldest first: each segment's tombstones delete the names older
// segments hold, and then its clips shadow older clips of the same
// name. It returns the stack's live clips as segment slots, names
// sorted and refs[i] the slot of names[i], plus the sorted union of
// the stack's tombstones. Open, replica bootstrap and compaction all
// read a stack through it.
func compose(segs []*segment.Reader) (names []string, refs []clipRef, tombs []string) {
	// The maps live only while composition runs; callers keep the
	// sorted slices.
	home := make(map[string]clipRef)
	dead := make(map[string]struct{})
	for _, s := range segs {
		for _, name := range s.Tombstones() {
			delete(home, name)
			dead[name] = struct{}{}
		}
		for i := 0; i < s.NumClips(); i++ {
			home[s.Name(i)] = clipRef{seg: s, idx: i}
		}
	}
	names = make([]string, 0, len(home))
	for name := range home {
		names = append(names, name)
	}
	slices.Sort(names)
	refs = make([]clipRef, len(names))
	for i, name := range names {
		refs[i] = home[name]
	}
	tombs = make([]string, 0, len(dead))
	for name := range dead {
		tombs = append(tombs, name)
	}
	slices.Sort(tombs)
	return names, refs, tombs
}

// ApplySegmentBase installs the composition of segs (see compose) as
// the database's cold tier, and enables the flush primitives. It must
// run on a fresh, empty database before WAL replay and before
// SetJournal. cacheSize bounds the materialized-clip cache (0 means
// DefaultClipCache). The readers stay pinned by published views; the
// caller must not Close them.
func (db *Database) ApplySegmentBase(segs []*segment.Reader, cacheSize int) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.store.enabled {
		return fmt.Errorf("core: segment base already applied")
	}
	cur := db.view.Load()
	if len(cur.names) != 0 {
		return fmt.Errorf("core: segment base applied to a non-empty database")
	}
	names, refs, _ := compose(segs)

	// The index holds exactly the surviving clips' entries: each
	// segment contributes only rows whose clip it owns after
	// composition.
	ix := varindex.New()
	var run []varindex.Entry
	for _, s := range segs {
		var err error
		run, err = s.AppendEntries(run[:0])
		if err != nil {
			return err
		}
		for _, e := range run {
			if i, ok := slices.BinarySearch(names, e.Clip); ok && refs[i].seg == s {
				ix.Add(e)
			}
		}
	}
	ix.Build()

	cache := newClipCache(cacheSize)
	db.store = storeState{enabled: true, tombs: make(map[string]struct{}), cache: cache}
	db.publishLocked(&view{epoch: cur.epoch + 1, names: names, refs: refs, index: ix, mat: cache})
	return nil
}

// PendingFlush is a consistent capture of everything one segment must
// hold, plus the WAL cut point the capture corresponds to — all read
// under one hold of the database lock, so a record is at or below the
// cut if and only if the segment contains its effect, and rotating the
// WAL to the cut after the flush lands can never erase a mutation the
// segment missed. BeginFlush captures the memtable records and the
// pending tombstones (the next flushed segment); BeginSnapshot captures
// every live clip, segment clips by slot (a replica bootstrap body);
// Compaction captures the composition of a run of segments (the
// segment that replaces the run).
type PendingFlush struct {
	refs   []clipRef
	tombs  []string
	cut    int64
	hasCut bool
}

// BeginFlush captures the memtable, the pending tombstone set, and (if
// a journal is installed) the WAL cut point. It returns nil when there
// is nothing to flush — no memtable clips and no pending tombstones.
// The expensive encoding happens later in WriteSegment, outside any
// lock.
func (db *Database) BeginFlush() (*PendingFlush, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if !db.store.enabled {
		return nil, fmt.Errorf("core: BeginFlush without a segment base")
	}
	v := db.view.Load()
	pf := &PendingFlush{}
	for _, ref := range v.refs {
		if ref.rec != nil {
			pf.refs = append(pf.refs, ref)
		}
	}
	for name := range db.store.tombs {
		pf.tombs = append(pf.tombs, name)
	}
	slices.Sort(pf.tombs)
	if len(pf.refs) == 0 && len(pf.tombs) == 0 {
		return nil, nil
	}
	if db.journal != nil {
		pf.cut, pf.hasCut = db.journal.Size(), true
	}
	return pf, nil
}

// Clips reports how many clips the capture holds.
func (pf *PendingFlush) Clips() int { return len(pf.refs) }

// Tombstones reports how many pending deletions the capture holds.
func (pf *PendingFlush) Tombstones() int { return len(pf.tombs) }

// Compaction captures the composition of run, adjacent segments of a
// stack oldest first, as the one segment that replaces them. The run's
// tombstones are kept only when hasOlder: then older segments remain
// for them to delete from. It returns nil when nothing survives — no
// live clip and no tombstone to keep — and the run is replaced by
// nothing. Like the other captures, it is encoded by WriteSegment.
func Compaction(run []*segment.Reader, hasOlder bool) *PendingFlush {
	_, refs, tombs := compose(run)
	if !hasOlder {
		tombs = nil
	}
	if len(refs) == 0 && len(tombs) == 0 {
		return nil
	}
	return &PendingFlush{refs: refs, tombs: tombs}
}

// JournalCut returns the WAL position captured with the state, and
// whether one was available.
func (pf *PendingFlush) JournalCut() (int64, bool) { return pf.cut, pf.hasCut }

// WriteSegment encodes the capture as segment id into w; composed with
// fsx.AtomicWrite it creates the segment file crash-atomically, its
// clips in name order. Segment clips are copied column-wise out of
// their segments. An empty capture (BeginSnapshot of an empty
// database) writes nothing, which ApplySnapshot reads back as the
// empty state.
func (pf *PendingFlush) WriteSegment(w io.Writer, id uint64) error {
	if pf.Clips() == 0 && len(pf.tombs) == 0 {
		return nil
	}
	cols := make([]segment.ClipColumns, 0, len(pf.refs))
	for _, ref := range pf.refs {
		if ref.rec != nil {
			cols = append(cols, clipColumns(ref.rec))
			continue
		}
		c, err := ref.seg.Clip(ref.idx)
		if err != nil {
			return err
		}
		cols = append(cols, c)
	}
	return segment.Write(w, id, cols, pf.tombs)
}

// CompleteFlush publishes a finished flush: every captured record
// still in its catalog slot — pointer identity, so a clip re-ingested
// or deleted since BeginFlush is left exactly as the newer mutation put
// it — flips to a slot of seg, and the captured tombstones leave the
// pending set (ones added after the capture stay pending for the next
// flush). The similarity index is untouched: the entries are
// the same rows wherever the record lives.
func (db *Database) CompleteFlush(pf *PendingFlush, seg *segment.Reader) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.store.enabled {
		return fmt.Errorf("core: CompleteFlush without a segment base")
	}
	v := db.view.Load()
	refs := slices.Clone(v.refs)
	for _, ref := range pf.refs {
		name := ref.rec.Name
		i, ok := v.find(name)
		if !ok || refs[i].rec != ref.rec {
			continue
		}
		idx, ok := seg.Lookup(name)
		if !ok {
			return fmt.Errorf("core: flushed segment %d is missing clip %q", seg.ID(), name)
		}
		refs[i] = clipRef{seg: seg, idx: idx}
	}
	for _, name := range pf.tombs {
		delete(db.store.tombs, name)
	}
	// Moving clips between homes leaves the names and index as they were.
	db.publishLocked(v.successor(v.names, refs, v.index))
	return nil
}

// SwapSegments atomically repoints every segment slot into one of the
// old segments (by id) at repl — the compaction commit — in name order.
// repl may be nil when the compaction output was empty (everything
// merged away by tombstones), in which case no live slot may point at
// the old segments. The view's names and index are unchanged; only
// where segment clips resolve from moves.
func (db *Database) SwapSegments(old []uint64, repl *segment.Reader) error {
	oldSet := make(map[uint64]bool, len(old))
	for _, id := range old {
		oldSet[id] = true
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.store.enabled {
		return fmt.Errorf("core: SwapSegments without a segment base")
	}
	v := db.view.Load()
	refs := slices.Clone(v.refs)
	for i, ref := range refs {
		if ref.seg == nil || !oldSet[ref.seg.ID()] {
			continue
		}
		name := v.names[i]
		if repl == nil {
			return fmt.Errorf("core: clip %q is live in removed segment %d with no replacement", name, ref.seg.ID())
		}
		idx, ok := repl.Lookup(name)
		if !ok {
			return fmt.Errorf("core: replacement segment %d is missing clip %q", repl.ID(), name)
		}
		refs[i] = clipRef{seg: repl, idx: idx}
	}
	db.publishLocked(v.successor(v.names, refs, v.index))
	return nil
}

// MemtableClips reports how many clips currently live in the memtable
// (heap) tier — what the next flush would write.
func (db *Database) MemtableClips() int {
	return db.view.Load().memtable()
}

// ColdClips reports how many clips currently resolve from mmap'd
// segments.
func (db *Database) ColdClips() int {
	v := db.view.Load()
	return len(v.refs) - v.memtable()
}

// PendingTombstones reports how many deletions await the next flush.
func (db *Database) PendingTombstones() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.store.tombs)
}

// recordTombstoneLocked notes a deletion for the next flush. Callers
// hold the write lock.
func (db *Database) recordTombstoneLocked(name string) {
	if db.store.enabled {
		db.store.tombs[name] = struct{}{}
	}
}
