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
// A view's catalog is two parallel slices: names, sorted, and refs,
// where refs[i] is the home of names[i] — a memtable record in the
// heap, or a slot of an mmap'd immutable segment (see flush.go and
// internal/segment). A lookup is one binary search. The similarity
// index always covers every clip, so the query kernel never cares
// where a clip lives; only record resolution (Scene attachment,
// Browse, listings) reads a ref, materializing segment clips on demand
// through a bounded shared cache.

package core

import (
	"slices"
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

// clipRef is one clip's home: a memtable record (rec set), or a slot
// of an mmap'd immutable segment (seg and idx). Views holding a
// segment slot keep the reader's mapping alive even after compaction
// unlinks the file.
type clipRef struct {
	rec *ClipRecord
	seg *segment.Reader
	idx int
}

// view is one immutable publication of the database's queryable state.
// Every field is frozen before the view becomes visible: a successor
// copies names and refs before editing either, and the index is built
// first, so concurrent readers share it without synchronization. The
// two caches a view points at lock for themselves.
type view struct {
	// epoch counts publications (Database.Epoch).
	epoch uint64
	// names is the catalog: every clip name, sorted and unique.
	names []string
	// refs[i] is the home of names[i]. The two slices are edited
	// together, and a successor never writes into a predecessor's
	// arrays: it shares a slice as it is or edits a copy.
	refs []clipRef
	// index is the built, immutable similarity index over all shots.
	index *varindex.Index
	// mat is the shared cold-clip materialization cache; nil without a
	// segment base.
	mat *clipCache
	// answers caches this view's query answers; publishLocked sets it,
	// empty, before the view becomes visible. nil when caching is
	// disabled, and in a view that was never published. An entry's
	// matches are the cache's private copy: answer appends them into
	// the caller's destination, so no caller ever holds (or can
	// corrupt) the cached backing array.
	answers *lru[qkey, []Match]
}

// emptyView is the epoch-0 state of a fresh database.
func emptyView() *view {
	return &view{index: varindex.New()}
}

// successor returns the next publication over the given catalog and
// index, sharing the cold-clip cache but none of v's answers.
func (v *view) successor(names []string, refs []clipRef, index *varindex.Index) *view {
	return &view{epoch: v.epoch + 1, names: names, refs: refs, index: index, mat: v.mat}
}

// find returns the catalog position of name, or where it would be
// inserted and false.
func (v *view) find(name string) (int, bool) {
	return slices.BinarySearch(v.names, name)
}

// has reports whether the view holds the named clip in either home.
func (v *view) has(name string) bool {
	_, ok := v.find(name)
	return ok
}

// record resolves the named clip to its full record, materializing a
// segment clip through the shared cache. The record is immutable either
// way. A segment clip that fails to materialize (possible only if the
// segment bytes changed under a verified mapping) reports absent.
func (v *view) record(name string) (*ClipRecord, bool) {
	i, ok := v.find(name)
	if !ok {
		return nil, false
	}
	ref := v.refs[i]
	if ref.rec != nil {
		return ref.rec, true
	}
	rec, err := v.mat.get(ref)
	return rec, err == nil
}

// memtable counts the clips whose home is a memtable record.
func (v *view) memtable() int {
	n := 0
	for _, ref := range v.refs {
		if ref.rec != nil {
			n++
		}
	}
	return n
}

// withClip returns the successor view with rec installed and its index
// entries merged in. A same-named clip — memtable (recovery replay
// re-applying a journal record) or segment (re-ingest after a flush) —
// is replaced wholesale, entries included: the successor shares names
// and sets the slot in a clone of refs. A new name goes into clipped
// copies of both slices, never into a predecessor's arrays.
func (v *view) withClip(rec *ClipRecord, entries []varindex.Entry) *view {
	ref := clipRef{rec: rec}
	names, refs := v.names, v.refs
	if i, found := v.find(rec.Name); found {
		refs = slices.Clone(refs)
		refs[i] = ref
	} else {
		names = slices.Insert(slices.Clip(names), i, rec.Name)
		refs = slices.Insert(slices.Clip(refs), i, ref)
	}
	return v.successor(names, refs, v.index.Replace(rec.Name, entries))
}

// withoutClip returns the successor view with the named clip and its
// index entries removed, whichever home holds it.
func (v *view) withoutClip(name string) *view {
	names, refs := v.names, v.refs
	if i, found := v.find(name); found {
		names = slices.Concat(names[:i], names[i+1:])
		refs = slices.Concat(refs[:i], refs[i+1:])
	}
	return v.successor(names, refs, v.index.Replace(name, nil))
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
