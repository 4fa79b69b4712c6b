// The cold-clip materialization cache: segment-backed clips decode
// into full ClipRecords only when a read path touches them (Scene
// resolution, Browse, listings), and the decoded records are shared
// across views through one bounded LRU keyed by (segment id, position).
// Records are immutable, so a cached entry can be handed to any number
// of concurrent readers; eviction only drops the cache's reference —
// pinned results stay valid. This is what bounds the heap on a corpus
// far larger than RAM: the mmap'd columns live in the page cache, and
// at most max materialized clips live in the heap at once.

package core

import (
	"sync/atomic"

	"videodb/internal/scenetree"
	"videodb/internal/segment"
)

// DefaultClipCache is the materialized-clip bound used when
// ApplySegmentBase is given no explicit size.
const DefaultClipCache = 1024

// clipKey identifies one clip of one segment. Segment ids are unique
// within a store for its whole life (the manifest's NextID never goes
// backwards), so a key can never alias across flushes or compactions.
type clipKey struct {
	seg uint64
	idx int
}

// clipCache is the bounded LRU of materialized cold clips, with its
// lookup counters.
type clipCache struct {
	clips        *lru[clipKey, *ClipRecord]
	hits, misses atomic.Uint64
}

func newClipCache(max int) *clipCache {
	if max <= 0 {
		max = DefaultClipCache
	}
	return &clipCache{clips: newLRU[clipKey, *ClipRecord](max)}
}

// get returns the materialized record for ref, decoding it from the
// segment on a miss. Decoding runs outside the lock so a slow
// materialization never serializes unrelated readers; two racing
// misses both decode and the first insert wins.
func (c *clipCache) get(ref clipRef) (*ClipRecord, error) {
	key := clipKey{ref.seg.ID(), ref.idx}
	if rec, ok := c.clips.get(key); ok {
		c.hits.Add(1)
		return rec, nil
	}
	c.misses.Add(1)
	rec, err := materializeClip(ref.seg, ref.idx)
	if err != nil {
		return nil, err
	}
	rec, _ = c.clips.add(key, rec)
	return rec, nil
}

// stats returns the cache counters.
func (c *clipCache) stats() ClipCacheStats {
	return ClipCacheStats{Hits: c.hits.Load(), Misses: c.misses.Load(), Entries: c.clips.len(), Max: c.clips.max}
}

// ClipCacheStats reports the cold-clip materialization cache counters.
type ClipCacheStats struct {
	// Hits and Misses count lookups served from / decoded past the
	// cache.
	Hits, Misses uint64
	// Entries is the current materialized-clip count; Max its bound.
	Entries, Max int
}

// ClipCacheStats reports the cold-clip cache's counters; the zero
// value when no segment base is installed.
func (db *Database) ClipCacheStats() ClipCacheStats {
	if db.store.cache == nil {
		return ClipCacheStats{}
	}
	return db.store.cache.stats()
}

// materializeClip decodes one segment clip into a live ClipRecord.
func materializeClip(seg *segment.Reader, idx int) (*ClipRecord, error) {
	c, err := seg.Clip(idx)
	if err != nil {
		return nil, err
	}
	return recordOf(c)
}

// recordOf rebuilds a live ClipRecord from its columnar form: columns
// back into shot records, the flattened tree back into the browsing
// hierarchy (which validates it against the shots). Pipeline telemetry
// is zero: it is not persisted.
func recordOf(c segment.ClipColumns) (*ClipRecord, error) {
	tree, err := scenetree.Unflatten(c.Tree, c.Shots)
	if err != nil {
		return nil, err
	}
	rec := &ClipRecord{
		Name: c.Name, Frames: c.Frames, FPS: c.FPS,
		Tree: tree, Stats: c.Stats,
		Shots: make([]ShotRecord, len(c.Shots)),
	}
	for k := range c.Shots {
		rec.Shots[k] = ShotRecord{Shot: c.Shots[k], Feature: c.Feats[k], RepFrame: c.Reps[k]}
	}
	return rec, nil
}

// clipColumns is the inverse of recordOf: one record's
// persistent state in the segment writer's columnar form.
func clipColumns(rec *ClipRecord) segment.ClipColumns {
	c := segment.ClipColumns{
		Name: rec.Name, Frames: rec.Frames, FPS: rec.FPS,
		Stats: rec.Stats, Tree: rec.Tree.Flatten(),
	}
	for _, sr := range rec.Shots {
		c.Shots = append(c.Shots, sr.Shot)
		c.Feats = append(c.Feats, sr.Feature)
		c.Reps = append(c.Reps, sr.RepFrame)
	}
	return c
}
