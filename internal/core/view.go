// The lock-free read path: all queryable state lives in an immutable
// view published through an atomic pointer. Writers (ingest, delete,
// recovery replay) serialize on the database's write lock, derive a
// successor view copy-on-write, and swap it in atomically; readers pin
// the current view with one atomic load and resolve everything against
// it with zero locks. A pinned view never changes, so a long listing or
// batch query is internally consistent even while mutations land.
// docs/QUERYPATH.md describes the protocol and its memory-model
// guarantees.
//
// A view holds clips in one of two homes: the memtable (clips, full
// *ClipRecord values in the heap) and the cold tier (cold, references
// into mmap'd immutable segments — see flush.go and internal/segment).
// The two key sets are disjoint; the similarity index always covers
// the union, so the query kernel never cares where a clip lives. Only
// record resolution (Scene attachment, Browse, listings) touches the
// difference, materializing cold clips on demand through a bounded
// shared cache.

package core

import (
	"slices"
	"sort"
	"sync"

	"videodb/internal/segment"
	"videodb/internal/varindex"
)

// searchScratch bundles the reusable buffers of one query: the index
// kernel's scratch and an entry staging slice. Database.answer borrows
// one from searchScratchPool, so an uncached query allocates nothing.
type searchScratch struct {
	vs  varindex.Scratch
	ent []varindex.Entry
}

var searchScratchPool = sync.Pool{New: func() any { return new(searchScratch) }}

// coldRef locates one segment-backed clip: the pinned reader and the
// clip's position in it. Views holding a coldRef keep the reader's
// mapping alive even after compaction unlinks the file.
type coldRef struct {
	seg *segment.Reader
	idx int
}

// view is one immutable publication of the database's queryable state.
// Every field is frozen at construction: the clip maps are never
// written after publish, names is copied before any edit, and the index
// is built before the view becomes visible, so concurrent readers share
// it without synchronization.
type view struct {
	// epoch counts publications; it tags query-cache entries so a
	// result computed against one view is never served once a newer
	// view exists.
	epoch uint64
	// clips maps name -> memtable record; read-only after publish.
	clips map[string]*ClipRecord
	// cold maps name -> segment-backed clip. Disjoint from clips (a
	// re-ingested clip shadows — and evicts — its cold reference). Nil
	// until a segment base is applied (pure in-memory databases never
	// allocate it).
	cold map[string]coldRef
	// names holds all clip names (memtable and cold), sorted.
	names []string
	// index is the built, immutable similarity index over all shots.
	index *varindex.Index
	// mat is the shared cold-clip materialization cache; nil without a
	// segment base.
	mat *clipCache
}

// emptyView is the epoch-0 state of a fresh database.
func emptyView() *view {
	return &view{clips: make(map[string]*ClipRecord), index: varindex.New()}
}

// clone derives the successor view skeleton: next epoch, copied clip
// maps, shared index and cache. Callers adjust the maps and index and
// set names.
func (v *view) clone() *view {
	next := &view{
		epoch: v.epoch + 1,
		clips: make(map[string]*ClipRecord, len(v.clips)+1),
		index: v.index,
		mat:   v.mat,
	}
	for n, r := range v.clips {
		next.clips[n] = r
	}
	if v.cold != nil {
		next.cold = make(map[string]coldRef, len(v.cold))
		for n, r := range v.cold {
			next.cold[n] = r
		}
	}
	return next
}

// finish derives the sorted name listing from the clip maps; only the
// bulk constructions (ApplySegmentBase, ApplySnapshot) need it.
func (v *view) finish() {
	v.names = make([]string, 0, len(v.clips)+len(v.cold))
	for n := range v.clips {
		v.names = append(v.names, n)
	}
	for n := range v.cold {
		v.names = append(v.names, n)
	}
	sort.Strings(v.names)
}

// has reports whether the view holds the named clip in either tier.
func (v *view) has(name string) bool {
	if _, ok := v.clips[name]; ok {
		return true
	}
	_, ok := v.cold[name]
	return ok
}

// record resolves the named clip to its full record, materializing a
// cold clip through the shared cache. The record is immutable either
// way. A cold clip that fails to materialize (possible only if the
// segment bytes changed under a verified mapping) reports absent.
func (v *view) record(name string) (*ClipRecord, bool) {
	if rec, ok := v.clips[name]; ok {
		return rec, true
	}
	ref, ok := v.cold[name]
	if !ok {
		return nil, false
	}
	rec, err := v.mat.get(ref)
	if err != nil {
		return nil, false
	}
	return rec, true
}

// withClip returns the successor view with rec installed and its index
// entries merged in. A same-named clip — memtable (recovery replay
// re-applying a journal record) or cold (re-ingest after a flush) — is
// replaced wholesale, entries included. A new name goes into a clipped
// copy of the listing, never into a predecessor's array.
func (v *view) withClip(rec *ClipRecord, entries []varindex.Entry) *view {
	next := v.clone()
	delete(next.cold, rec.Name)
	next.clips[rec.Name] = rec
	next.index = v.index.Replace(rec.Name, entries)
	next.names = v.names
	if i, found := slices.BinarySearch(v.names, rec.Name); !found {
		next.names = slices.Insert(slices.Clip(v.names), i, rec.Name)
	}
	return next
}

// withoutClip returns the successor view with the named clip and its
// index entries removed, whichever tier holds it.
func (v *view) withoutClip(name string) *view {
	next := v.clone()
	delete(next.clips, name)
	delete(next.cold, name)
	next.index = v.index.Replace(name, nil)
	next.names = v.names
	if i, found := slices.BinarySearch(v.names, name); found {
		next.names = slices.Delete(slices.Clone(v.names), i, i+1)
	}
	return next
}

// resolveAppend attaches the largest-scene node to each entry — the
// browsing entry point §4.2 describes — appending the matches to dst.
// The tree walk is alloc-free for memtable clips, and cold clips resolve
// through the materialization cache, so hot result sets stay cheap.
func (v *view) resolveAppend(dst []Match, entries []varindex.Entry) []Match {
	for _, e := range entries {
		m := Match{Entry: e}
		if rec, ok := v.record(e.Clip); ok {
			m.Scene = rec.Tree.LargestSceneFor(e.Shot)
		}
		dst = append(dst, m)
	}
	return dst
}
