// Tests for the zero-alloc query plumbing and the cache-aliasing fix:
// cached results must never share backing arrays with callers, and the
// steady-state uncached append path must not allocate.

package core

import (
	"testing"

	"videodb/internal/varindex"
)

// allocDB ingests one corpus clip and returns queries derived from its
// shot features, so every query has a non-empty result set.
func allocDB(t testing.TB, cacheSize int) (*Database, []varindex.Query) {
	t.Helper()
	db, err := Open(DefaultOptions(), WithQueryCache(cacheSize))
	if err != nil {
		t.Fatal(err)
	}
	clip, _ := corpusClip(t, "alloc", 42)
	if _, err := db.Ingest(clip); err != nil {
		t.Fatal(err)
	}
	var qs []varindex.Query
	for _, rec := range db.Records() {
		for _, s := range rec.Shots {
			qs = append(qs, varindex.Query{
				VarBA: s.Feature.VarBA, VarOA: s.Feature.VarOA, MeanBA: s.Feature.MeanBA,
			})
		}
	}
	if len(qs) == 0 {
		t.Fatal("corpus clip produced no shots")
	}
	return db, qs
}

// TestCacheHitIsPristine is the aliasing regression test: a caller
// that scribbles over, truncates, or re-sorts its result must not
// corrupt what the next identical query is served.
func TestCacheHitIsPristine(t *testing.T) {
	db, qs := allocDB(t, 16)
	q := qs[0]

	want, err := db.QueryUncached(q, db.Options().Query)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("query has no matches; the test needs a non-empty result")
	}

	// Populate the cache, then vandalize the returned slice every way a
	// caller can.
	got, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] = Match{Entry: varindex.Entry{Clip: "vandal", Shot: -1}}
	}
	got = got[:0]
	_ = append(got, Match{Entry: varindex.Entry{Clip: "vandal2"}})

	// The next hit must be byte-for-byte what the index returns.
	again, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != len(want) {
		t.Fatalf("post-mutation hit has %d matches, want %d", len(again), len(want))
	}
	for i := range again {
		if again[i].Entry != want[i].Entry {
			t.Fatalf("post-mutation hit match %d = %+v, want %+v — cache shared its backing array", i, again[i].Entry, want[i].Entry)
		}
	}
	if s := db.QueryCacheStats(); s.Hits == 0 {
		t.Fatal("second query did not hit the cache; the test proved nothing")
	}
}

// TestQueryUncachedAppendZeroAllocs: the raw kernel path with pooled
// scratch and warmed dst allocates nothing per query.
func TestQueryUncachedAppendZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled-scratch allocation counts are not meaningful under the race detector")
	}
	db, qs := allocDB(t, 0)
	opt := db.Options().Query
	var dst []Match
	var err error
	for _, q := range qs {
		if dst, err = db.QueryUncachedAppend(dst[:0], q, opt); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	avg := testing.AllocsPerRun(200, func() {
		q := qs[qi%len(qs)]
		qi++
		if dst, err = db.QueryUncachedAppend(dst[:0], q, opt); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("QueryUncachedAppend allocates %.1f allocs/op, want 0", avg)
	}
}
