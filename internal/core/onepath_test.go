// The differential table for the one query path (Database.answer):
// whatever sits around the kernel — a query cache or none, clips in the
// memtable or flushed cold, one query or a batch, the paper's model or
// the extended one — every answer equals QueryUncached and the
// SearchLinear oracle over the union corpus, and a batch racing
// mutations answers every point from one epoch.

package core

import (
	"fmt"
	"sync"
	"testing"

	"videodb/internal/rng"
	"videodb/internal/varindex"
	"videodb/internal/vtest"
)

// onePathCorpus analyzes six small clips once and returns their
// exported records, so every table row imports the same corpus without
// re-running the pipeline.
func onePathCorpus(t *testing.T) [][]byte {
	t.Helper()
	src := openDB(t)
	var payloads [][]byte
	for i := 0; i < 6; i++ {
		rec, err := src.Ingest(smallCorpusClip(t, fmt.Sprintf("one-%d", i), uint64(300+i)))
		if err != nil {
			t.Fatal(err)
		}
		payload, err := EncodeClipRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	return payloads
}

// unionOracle rebuilds a plain index over every shot the database
// holds, in whichever tier, constructing entries the way ingest does.
func unionOracle(db *Database) (*varindex.Index, []varindex.Query) {
	ix := varindex.New()
	var feats []varindex.Query
	for _, rec := range db.Records() {
		for k, sr := range rec.Shots {
			ix.Add(varindex.Entry{
				Clip: rec.Name, Shot: k,
				Start: sr.Shot.Start, End: sr.Shot.End,
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA,
				MeanBA: sr.Feature.MeanBA,
			})
			feats = append(feats, varindex.Query{
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA, MeanBA: sr.Feature.MeanBA,
			})
		}
	}
	ix.Build()
	return ix, feats
}

// sameAnswer asserts got is want entry for entry, order included, with
// a browsing entry point attached to every match.
func sameAnswer(t *testing.T, label string, got []Match, want []varindex.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for k := range got {
		if got[k].Entry != want[k] {
			t.Fatalf("%s: match %d = %+v, want %+v", label, k, got[k].Entry, want[k])
		}
		if got[k].Scene == nil {
			t.Fatalf("%s: match %d (%s) has no scene node", label, k, want[k].Key())
		}
	}
}

func TestOnePathEquivalence(t *testing.T) {
	payloads := onePathCorpus(t)
	for _, cache := range []int{0, 64} {
		for _, cold := range []bool{false, true} {
			for _, gamma := range []float64{0, 0.4} {
				name := fmt.Sprintf("cache=%d/cold=%v/gamma=%g", cache, cold, gamma)
				t.Run(name, func(t *testing.T) {
					db, err := Open(DefaultOptions(), WithQueryCache(cache))
					if err != nil {
						t.Fatal(err)
					}
					load := func(ps [][]byte) {
						for _, p := range ps {
							if _, err := db.ImportClipRecord(p); err != nil {
								t.Fatal(err)
							}
						}
					}
					if cold {
						// Four clips flushed into a segment, two left in the
						// memtable: the index spans both tiers.
						if err := db.ApplySegmentBase(nil, 8); err != nil {
							t.Fatal(err)
						}
						load(payloads[:4])
						pf, err := db.BeginFlush()
						if err != nil {
							t.Fatal(err)
						}
						if err := db.CompleteFlush(pf, writeSegmentFile(t, t.TempDir(), 1, pf)); err != nil {
							t.Fatal(err)
						}
						load(payloads[4:])
						if db.ColdClips() != 4 || db.MemtableClips() != 2 {
							t.Fatalf("%d cold, %d memtable clips, want 4 and 2", db.ColdClips(), db.MemtableClips())
						}
					} else {
						load(payloads)
					}

					oracle, feats := unionOracle(db)
					opt := varindex.Options{Alpha: 1, Beta: 1, Gamma: gamma}
					matched := 0
					// Two passes over the same stream: with a cache, the
					// second is answered from it.
					for pass := 0; pass < 2; pass++ {
						r := rng.New(11)
						for n := 1; n <= 24; n++ {
							qs := make([]varindex.Query, n)
							for i := range qs {
								qs[i] = feats[r.Intn(len(feats))]
								if r.Bool(0.5) {
									qs[i].VarBA *= r.Float64Range(0.8, 1.25)
									qs[i].VarOA *= r.Float64Range(0.8, 1.25)
								}
							}
							batch, err := db.QueryBatch(qs, opt)
							if err != nil {
								t.Fatal(err)
							}
							if len(batch) != n {
								t.Fatalf("batch of %d answered %d points", n, len(batch))
							}
							for i, q := range qs {
								want, err := oracle.SearchLinear(q, opt)
								if err != nil {
									t.Fatal(err)
								}
								label := fmt.Sprintf("pass %d batch %d point %d", pass, n, i)
								sameAnswer(t, label+" QueryBatch", batch[i], want)
								scalar, err := db.QueryWithOptions(q, opt)
								if err != nil {
									t.Fatal(err)
								}
								sameAnswer(t, label+" QueryWithOptions", scalar, want)
								uncached, err := db.QueryUncached(q, opt)
								if err != nil {
									t.Fatal(err)
								}
								sameAnswer(t, label+" QueryUncached", uncached, want)
								matched += len(want)
							}
						}
					}
					if matched == 0 {
						t.Fatal("no query matched anything; the table compared empty answers")
					}
					s := db.QueryCacheStats()
					if cache == 0 && s != (CacheStats{}) {
						t.Fatalf("cache disabled but counters moved: %+v", s)
					}
					if cache > 0 && s.Hits == 0 {
						t.Fatal("cache enabled but never hit; the cached rows proved nothing")
					}
				})
			}
		}
	}
}

// TestQueryBatchConcurrentMutationOneEpoch: while a writer ingests and
// removes a clip, every point of a batch must see the same corpus —
// the clip wholly present or wholly absent at all 24 points — with and
// without the query cache between the batch and the kernel.
func TestQueryBatchConcurrentMutationOneEpoch(t *testing.T) {
	for _, cache := range []int{0, 64} {
		t.Run(fmt.Sprintf("cache=%d", cache), func(t *testing.T) {
			db, err := Open(DefaultOptions(), WithQueryCache(cache))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := db.Ingest(vtest.TwoShotClip("resident", 1, 2, 8, 16)); err != nil {
				t.Fatal(err)
			}
			toggled := vtest.TwoShotClip("toggled", 3, 4, 8, 16)

			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(done)
				for round := 0; round < 12; round++ {
					if _, err := db.Ingest(toggled); err != nil {
						t.Errorf("ingest: %v", err)
						return
					}
					if err := db.Remove("toggled"); err != nil {
						t.Errorf("remove: %v", err)
						return
					}
				}
			}()

			// Distinct points, each matching every shot: no point can be
			// answered from another's cache entry.
			wide := varindex.Options{Alpha: 1e9, Beta: 1e9}
			qs := make([]varindex.Query, 24)
			for i := range qs {
				qs[i] = varindex.Query{VarBA: float64(i)}
			}
			for running := true; running; {
				select {
				case <-done:
					running = false // one more batch, against the final state
				default:
				}
				batch, err := db.QueryBatch(qs, wide)
				if err != nil {
					t.Fatal(err)
				}
				for i := range batch {
					if len(batch[i]) != len(batch[0]) {
						t.Fatalf("point %d saw %d shots, point 0 saw %d: the batch straddled two epochs",
							i, len(batch[i]), len(batch[0]))
					}
				}
			}
			wg.Wait()
		})
	}
}
