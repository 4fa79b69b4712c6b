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

	"videodb/internal/varindex"
	"videodb/internal/vtest"
)

// --- queryCache unit tests -------------------------------------------

// TestQueryCacheSingleflight proves concurrent identical misses
// collapse into one computation: N goroutines ask for the same key
// while the first compute is deliberately blocked, and exactly one
// compute runs.
func TestQueryCacheSingleflight(t *testing.T) {
	c := newQueryCache(8)
	c.invalidate(1)

	var computes atomic.Int32
	release := make(chan struct{})
	want := []Match{{Entry: varindex.Entry{Clip: "x", Shot: 0}}}
	compute := func() ([]Match, error) {
		computes.Add(1)
		<-release
		return want, nil
	}

	const waiters = 8
	var wg sync.WaitGroup
	results := make([][]Match, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, hit, err := c.do(tkey("k"), 1, compute)
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			if hit {
				t.Errorf("waiter %d: reported a hit during a blocked flight", i)
			}
			results[i] = got
		}(i)
	}
	// Every waiter registers a miss before joining the flight; once all
	// are counted, release the one compute.
	for {
		c.mu.Lock()
		n := c.misses
		c.mu.Unlock()
		if n == waiters {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("%d waiters ran %d computes, want 1", waiters, got)
	}
	for i, got := range results {
		if len(got) != 1 || got[0].Entry != want[0].Entry {
			t.Fatalf("waiter %d got %v", i, got)
		}
	}
	// The flight's result was stored: the next lookup is a hit.
	if _, hit, _ := c.do(tkey("k"), 1, func() ([]Match, error) { t.Fatal("recompute after store"); return nil, nil }); !hit {
		t.Fatal("stored flight result not served as a hit")
	}
}

// tkey builds a qkey from a short literal for the cache unit tests.
func tkey(s string) qkey {
	var k qkey
	copy(k[:], s)
	return k
}

// TestQueryCacheEpochProtocol pins the invalidation rules: a stale
// flight's result is never stored, a newer-epoch caller never joins an
// older flight, and invalidate clears everything at once.
func TestQueryCacheEpochProtocol(t *testing.T) {
	c := newQueryCache(8)
	c.invalidate(1)

	// A flight computed against epoch 1 finishes after the cache moved
	// to epoch 2: its result must not be stored.
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.do(tkey("stale"), 1, func() ([]Match, error) {
			close(started)
			<-release
			return []Match{{Entry: varindex.Entry{Clip: "old"}}}, nil
		})
	}()
	<-started
	c.invalidate(2)
	// A caller pinned on the new epoch must not join the old flight —
	// it computes its own answer immediately.
	got, hit, err := c.do(tkey("stale"), 2, func() ([]Match, error) {
		return []Match{{Entry: varindex.Entry{Clip: "new"}}}, nil
	})
	if err != nil || hit {
		t.Fatalf("new-epoch lookup: hit=%v err=%v", hit, err)
	}
	if len(got) != 1 || got[0].Entry.Clip != "new" {
		t.Fatalf("new-epoch caller joined the stale flight: %v", got)
	}
	close(release)
	wg.Wait()
	// The stale flight must not have overwritten the epoch-2 entry.
	got, hit, _ = c.do(tkey("stale"), 2, func() ([]Match, error) { return nil, errors.New("unreachable") })
	if !hit || got[0].Entry.Clip != "new" {
		t.Fatalf("epoch-2 entry lost to a stale flight: hit=%v %v", hit, got)
	}

	c.invalidate(3)
	if s := c.stats(); s.Size != 0 {
		t.Fatalf("invalidate left %d entries", s.Size)
	}
	// An entry from a newer epoch is a miss for an older pinned caller
	// (a batch that loaded its view before the swap) — but must NOT be
	// purged, since it is fresh for everyone else.
	c.do(tkey("k"), 3, func() ([]Match, error) { return nil, nil })
	if _, hit, _ := c.do(tkey("k"), 2, func() ([]Match, error) { return nil, nil }); hit {
		t.Fatal("stale pinned caller served a newer epoch's entry")
	}
	if _, hit, _ := c.do(tkey("k"), 3, func() ([]Match, error) { return nil, nil }); !hit {
		t.Fatal("fresh entry purged by a stale caller's lookup")
	}

	// Errors are never cached.
	boom := errors.New("boom")
	if _, _, err := c.do(tkey("err"), 3, func() ([]Match, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	ran := false
	c.do(tkey("err"), 3, func() ([]Match, error) { ran = true; return nil, nil })
	if !ran {
		t.Fatal("failed compute was cached")
	}
}

func TestQueryCacheEviction(t *testing.T) {
	c := newQueryCache(2)
	c.invalidate(1)
	for _, k := range []string{"a", "b", "c"} {
		c.do(tkey(k), 1, func() ([]Match, error) { return nil, nil })
	}
	s := c.stats()
	if s.Size != 2 || s.Evictions != 1 {
		t.Fatalf("size %d evictions %d after 3 inserts into cap 2, want 2/1", s.Size, s.Evictions)
	}
	// "a" is the LRU victim: it recomputes, "c" is still cached.
	if _, hit, _ := c.do(tkey("a"), 1, func() ([]Match, error) { return nil, nil }); hit {
		t.Fatal("evicted entry served as a hit")
	}
	if _, hit, _ := c.do(tkey("c"), 1, func() ([]Match, error) { return nil, nil }); !hit {
		t.Fatal("resident entry missed")
	}
	if newQueryCache(0) != nil {
		t.Fatal("capacity 0 must disable the cache")
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

// TestViewRetention proves superseded views become garbage: the
// database, its cache, and its flights must not pin old epochs, or
// every mutation would leak a full index copy.
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
// leak goroutines — queries, cache flights and swaps all complete
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
