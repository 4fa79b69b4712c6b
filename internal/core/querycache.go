// The query-result cache belongs to the view: publishLocked gives every
// view it publishes an empty answer cache (view.answers), so an answer
// is only ever served to readers of the view it was computed against.
// A write publishes a successor whose cache starts empty, and a reader
// still pinned on an older view (a batch that spans a write) is served
// from that view's own answers. Concurrent identical misses each run
// the kernel; the first answer added is the one kept.

package core

import (
	"encoding/binary"
	"math"
	"sync/atomic"

	"videodb/internal/varindex"
)

// CacheStats is a point-in-time reading of the query cache's counters.
// The zero value is what a cache-disabled database reports.
type CacheStats struct {
	// Hits counts queries answered from the cache.
	Hits uint64
	// Misses counts cached-path queries that ran the index search.
	Misses uint64
	// Evictions counts entries dropped for capacity; the answers a
	// superseded view takes with it are not evictions.
	Evictions uint64
	// Size is the current view's number of cached results.
	Size int
	// Capacity is the configured bound; 0 means caching is disabled.
	Capacity int
}

// answerCounters are the cumulative counters of a database's answer
// caches, summed over every view it published.
type answerCounters struct {
	hits, misses, evictions atomic.Uint64
}

// qkey is the cache key: a fixed-size value type so computing and
// looking one up never allocates (a string key cost one heap copy per
// query on the hot path).
type qkey [8 * 8]byte

// cacheKey canonicalizes a query+options pair into an exact binary
// key: the bit patterns of every float that influences the result set.
// Two requests collide if and only if they are bitwise the same query.
func cacheKey(q varindex.Query, opt varindex.Options) qkey {
	var b qkey
	for i, f := range [...]float64{
		q.VarBA, q.VarOA, q.MeanBA[0], q.MeanBA[1], q.MeanBA[2],
		opt.Alpha, opt.Beta, opt.Gamma,
	} {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(f))
	}
	return b
}

// QueryCacheStats reports the query cache's counters; the zero value
// when caching is disabled.
func (db *Database) QueryCacheStats() CacheStats {
	if db.opts.QueryCache == 0 {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      db.answered.hits.Load(),
		Misses:    db.answered.misses.Load(),
		Evictions: db.answered.evictions.Load(),
		Size:      db.view.Load().answers.len(),
		Capacity:  db.opts.QueryCache,
	}
}
