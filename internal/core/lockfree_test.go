package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/segment"
	"videodb/internal/varindex"
	"videodb/internal/vtest"
)

// --- the LRU and the caches built on it ------------------------------

// TestLRUCacheEviction checks the one LRU both caches share: the bound,
// that a get refreshes an entry so add evicts the least recently used
// one, that a second add of a resident key returns the first value,
// and the eviction count.
func TestLRUCacheEviction(t *testing.T) {
	c := newLRU[string, int](2)
	for i, k := range []string{"a", "b"} {
		if got, ev := c.add(k, i); got != i || ev != 0 {
			t.Fatalf("add(%q, %d) = %d, %d evicted; want %d, 0", k, i, got, ev, i)
		}
	}
	// A get refreshes "a", so "b" is now the least recently used.
	if v, ok := c.get("a"); !ok || v != 0 {
		t.Fatalf("get(a) = %d, %v; want 0, true", v, ok)
	}
	if got, ev := c.add("c", 2); got != 2 || ev != 1 {
		t.Fatalf("add(c) = %d, %d evicted; want 2, 1", got, ev)
	}
	if n := c.len(); n != 2 {
		t.Fatalf("len %d after 3 adds into a bound of 2", n)
	}
	if _, ok := c.get("b"); ok {
		t.Fatal("least recently used entry b survived the eviction")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("recently used entry %q was evicted", k)
		}
	}
	// The first insert wins: a second add of a resident key returns the
	// value already there, evicts nothing and refreshes it.
	if got, ev := c.add("a", 99); got != 0 || ev != 0 {
		t.Fatalf("second add(a) = %d, %d evicted; want the resident 0, 0", got, ev)
	}
	if got, ev := c.add("d", 3); got != 3 || ev != 1 {
		t.Fatalf("add(d) = %d, %d evicted; want 3, 1", got, ev)
	}
	if _, ok := c.get("c"); ok {
		t.Fatal("c survived although the second add(a) refreshed a")
	}
	if v, ok := c.get("a"); !ok || v != 0 {
		t.Fatalf("get(a) = %d, %v after the second add; want 0, true", v, ok)
	}
}

// TestViewCacheOwnsItsAnswers: each published view caches its own
// answers. An answer cached on view A is never served on its successor
// B, and a reader still pinned on A is served from A's own cache,
// superseded or not. A query that fails is never cached.
func TestViewCacheOwnsItsAnswers(t *testing.T) {
	db, err := Open(DefaultOptions(), WithQueryCache(8))
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"keep", "gone"} {
		seed := uint64(10*i + 1)
		if _, err := db.Ingest(vtest.TwoShotClip(name, seed, seed+1, 8, 16)); err != nil {
			t.Fatal(err)
		}
	}
	wide := varindex.Options{Alpha: 1e9, Beta: 1e9}
	q := varindex.Query{VarBA: 1}
	has := func(ms []Match, clip string) bool {
		return slices.ContainsFunc(ms, func(m Match) bool { return m.Entry.Clip == clip })
	}
	stats := func() (hits, misses uint64) {
		s := db.QueryCacheStats()
		return s.Hits, s.Misses
	}

	a := db.view.Load()
	onA, err := db.QueryWithOptions(q, wide)
	if err != nil {
		t.Fatal(err)
	}
	if !has(onA, "gone") {
		t.Fatal("view A's answer lacks clip gone")
	}
	if h, m := stats(); h != 0 || m != 1 {
		t.Fatalf("first query: %d hits, %d misses; want 0, 1", h, m)
	}

	if err := db.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	b := db.view.Load()
	if b == a {
		t.Fatal("Remove published no new view")
	}
	onB, err := db.QueryWithOptions(q, wide)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := stats(); h != 0 || m != 2 {
		t.Fatalf("q on the successor: %d hits, %d misses; want 0, 2 (a miss)", h, m)
	}
	if has(onB, "gone") {
		t.Fatal("the successor served the removed clip: it inherited its predecessor's answer")
	}

	again, err := db.answer(nil, a, q, wide, true)
	if err != nil {
		t.Fatal(err)
	}
	if !has(again, "gone") || len(again) != len(onA) {
		t.Fatalf("pinned view A answered %d matches (gone present: %v), want its own %d with gone",
			len(again), has(again, "gone"), len(onA))
	}
	if h, m := stats(); h != 1 || m != 2 {
		t.Fatalf("q on pinned A: %d hits, %d misses; want 1, 2 (a hit on A's cache)", h, m)
	}
	if a.answers.len() != 1 || b.answers.len() != 1 {
		t.Fatalf("cache sizes A %d, B %d; want 1 each", a.answers.len(), b.answers.len())
	}

	bad := varindex.Query{VarBA: -1}
	for i := 0; i < 2; i++ {
		if _, err := db.QueryWithOptions(bad, wide); !errors.Is(err, varindex.ErrBadQuery) {
			t.Fatalf("invalid query %d: err %v, want ErrBadQuery", i, err)
		}
	}
	if h, m := stats(); h != 1 || m != 4 {
		t.Fatalf("after two invalid queries: %d hits, %d misses; want 1, 4 (both ran the kernel)", h, m)
	}
	if n := b.answers.len(); n != 1 {
		t.Fatalf("view B caches %d answers after two invalid queries, want 1", n)
	}
}

// TestClipCacheBound: the cold-clip cache holds at most its bound of
// materialized clips while every cold clip still browses.
func TestClipCacheBound(t *testing.T) {
	scratch := openDB(t)
	names := []string{"c0", "c1", "c2", "c3"}
	var recs []*ClipRecord
	for i, name := range names {
		seed := uint64(10*i + 1)
		rec, err := scratch.Ingest(vtest.TwoShotClip(name, seed, seed+1, 8, 16))
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	seg := writeSegmentFile(t, t.TempDir(), 1, &PendingFlush{refs: memRefs(recs...)})
	db := openDB(t)
	if err := db.ApplySegmentBase([]*segment.Reader{seg}, 2); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		tree, err := db.Browse(name)
		if err != nil || tree == nil {
			t.Fatalf("Browse(%s) = %v, %v", name, tree, err)
		}
		if s := db.ClipCacheStats(); s.Entries > 2 {
			t.Fatalf("after Browse(%s) the clip cache holds %d clips, bound 2", name, s.Entries)
		}
	}
	if _, err := db.Browse("c3"); err != nil {
		t.Fatal(err)
	}
	want := ClipCacheStats{Hits: 1, Misses: 4, Entries: 2, Max: 2}
	if s := db.ClipCacheStats(); s != want {
		t.Fatalf("clip cache stats %+v, want %+v", s, want)
	}
}

// --- linearizability under concurrent mutation -----------------------

// clip presence states for the linearizability ledger.
const (
	stAbsent int32 = iota
	stPresent
	stMutating
)

// TestConcurrentCacheLinearizability runs writers toggling clips in and
// out of the database against readers issuing match-all queries through
// the cached path. The ledger check: a query that began after a clip's
// ingest returned (and finished before any later mutation of it
// started) must see the clip; symmetrically for deletes. Each reader
// also re-answers its query uncached; whenever no publication landed
// between the pair the two must agree exactly, proving the cache never
// serves an answer from a different epoch than the caller's view.
func TestConcurrentCacheLinearizability(t *testing.T) {
	db, err := Open(DefaultOptions(), WithQueryCache(64))
	if err != nil {
		t.Fatal(err)
	}

	const writers = 3
	const clipsPerWriter = 2
	const toggles = 12
	names := make([]string, writers*clipsPerWriter)
	states := make([]atomic.Int32, len(names))
	for i := range names {
		names[i] = fmt.Sprintf("lin-%d", i)
	}

	// matchAll tolerances: every shot satisfies Eqs. 7–8.
	wide := varindex.Options{Alpha: 1e9, Beta: 1e9}
	// A handful of distinct queries so the cache holds several keys and
	// serves real hits between invalidations.
	queries := []varindex.Query{{VarBA: 1}, {VarBA: 4, VarOA: 1}, {VarBA: 9, VarOA: 4}}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < toggles; round++ {
				for c := 0; c < clipsPerWriter; c++ {
					i := w*clipsPerWriter + c
					seed := uint64(i*1000 + 1)
					states[i].Store(stMutating)
					if _, err := db.Ingest(vtest.TwoShotClip(names[i], seed, seed+1, 8, 16)); err != nil {
						t.Errorf("ingest %s: %v", names[i], err)
						return
					}
					states[i].Store(stPresent)

					states[i].Store(stMutating)
					if err := db.Remove(names[i]); err != nil {
						t.Errorf("remove %s: %v", names[i], err)
						return
					}
					states[i].Store(stAbsent)
				}
			}
		}(w)
	}

	const readers = 4
	var sameEpoch atomic.Int64
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			before := make([]int32, len(names))
			for i := 0; i < 300; i++ {
				q := queries[(rd+i)%len(queries)]
				for c := range states {
					before[c] = states[c].Load()
				}
				// Epochs only grow, so equal readings around the two queries
				// mean no publication landed in between: both answered from
				// the one view of that epoch and must agree exactly.
				epoch := db.Epoch()
				cached, err := db.QueryWithOptions(q, wide)
				if err != nil {
					t.Errorf("reader %d query %d: %v", rd, i, err)
					return
				}
				direct, err := db.QueryUncached(q, wide)
				if err != nil {
					t.Errorf("reader %d query %d direct: %v", rd, i, err)
					return
				}
				if db.Epoch() == epoch {
					sameEpoch.Add(1)
					if len(cached) != len(direct) {
						t.Errorf("reader %d query %d: cache served %d matches, the view of epoch %d holds %d — cross-epoch entry",
							rd, i, len(cached), epoch, len(direct))
						return
					}
					for k := range cached {
						if cached[k].Entry != direct[k].Entry {
							t.Errorf("reader %d query %d result %d: cache %+v, view %+v",
								rd, i, k, cached[k].Entry, direct[k].Entry)
							return
						}
					}
				}
				seen := make(map[string]bool)
				for _, m := range cached {
					seen[m.Entry.Clip] = true
				}
				for c := range states {
					after := states[c].Load()
					if before[c] != after || before[c] == stMutating {
						continue // clip unstable across the query; no claim
					}
					if before[c] == stPresent && !seen[names[c]] {
						t.Errorf("reader %d query %d: clip %s stable-present but missing from results", rd, i, names[c])
						return
					}
					if before[c] == stAbsent && seen[names[c]] {
						t.Errorf("reader %d query %d: clip %s stable-absent but served — stale cache", rd, i, names[c])
						return
					}
				}
			}
		}(rd)
	}
	wg.Wait()

	if s := db.QueryCacheStats(); s.Hits == 0 {
		t.Error("concurrent run produced zero cache hits — the cached path was not exercised")
	}
	if sameEpoch.Load() == 0 {
		t.Error("no cached/uncached pair shared an epoch — the cross-epoch check compared nothing")
	}
}

// --- retention and goroutine hygiene ---------------------------------

// TestViewRetention proves superseded views become garbage, their
// answer caches with them: nothing the database keeps may pin an old
// view, or every mutation would leak a full index copy.
func TestViewRetention(t *testing.T) {
	db, err := Open(DefaultOptions(), WithQueryCache(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(vtest.TwoShotClip("ret", 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
	rec, _ := db.Clip("ret")
	payload, err := EncodeClipRecord(rec)
	if err != nil {
		t.Fatal(err)
	}

	// Populate the cache against the current view, then grab that view
	// and watch for its finalizer across a run of cheap swaps.
	if _, err := db.Query(varindex.Query{VarBA: 1}); err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	old := db.view.Load()
	runtime.SetFinalizer(old, func(*view) { close(collected) })
	old = nil
	_ = old

	for i := 0; i < 8; i++ {
		if err := db.Remove("ret"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.ImportClipRecord(payload); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Query(varindex.Query{VarBA: 1}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("superseded view still reachable after 8 swaps — the query path retains old epochs")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestPinnedListingsSurviveLaterWrites: successors share or copy their
// predecessor's name listing but never edit it. Inserts in scrambled
// order grow the listing's array with spare capacity, where an in-place
// insert or delete would shift a pinned view's names under its reader.
// Each pinned view must also keep resolving every name to the record it
// was published with: re-ingesting "c" replaces a record, and a
// successor that set that slot in shared storage would repoint "c" in
// every earlier view too.
func TestPinnedListingsSurviveLaterWrites(t *testing.T) {
	v := emptyView()
	var pinned []*view
	var want [][]string
	var wantRecs []map[string]*ClipRecord
	pin := func(next *view) {
		v = next
		pinned = append(pinned, v)
		want = append(want, slices.Clone(v.names))
		recs := make(map[string]*ClipRecord, len(v.names))
		for _, name := range v.names {
			rec, ok := v.record(name)
			if !ok {
				t.Fatalf("view %d lists %q but cannot resolve it", len(pinned)-1, name)
			}
			recs[name] = rec
		}
		wantRecs = append(wantRecs, recs)
	}
	for _, name := range []string{"m", "c", "x", "a", "q", "b", "z", "d", "c"} {
		pin(v.withClip(&ClipRecord{Name: name}, nil))
	}
	for _, name := range []string{"c", "z", "a", "nope"} {
		pin(v.withoutClip(name))
	}
	for i, p := range pinned {
		if !slices.Equal(p.names, want[i]) {
			t.Fatalf("view %d lists %v after later writes, published with %v", i, p.names, want[i])
		}
		for name, rec := range wantRecs[i] {
			if got, ok := p.record(name); !ok || got != rec {
				t.Fatalf("view %d resolves %q to %p after later writes, published with %p", i, name, got, rec)
			}
		}
	}
	if got := []string{"b", "d", "m", "q", "x"}; !slices.Equal(v.names, got) {
		t.Fatalf("final listing %v, want %v", v.names, got)
	}
}

// TestQueryPathSpawnsNoGoroutines: the lock-free read path must not
// leak goroutines — queries, cache misses and swaps all complete
// synchronously.
func TestQueryPathSpawnsNoGoroutines(t *testing.T) {
	db, err := Open(DefaultOptions(), WithQueryCache(16))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(vtest.TwoShotClip("g", 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		if _, err := db.QueryWithOptions(varindex.Query{VarBA: float64(i % 7)}, varindex.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Remove("g"); err != nil {
		t.Fatal(err)
	}
	// Allow any stray goroutine a moment to exit before counting.
	var after int
	for i := 0; i < 50; i++ {
		runtime.GC()
		after = runtime.NumGoroutine()
		if after <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("query path grew goroutines: %d before, %d after", before, after)
}
