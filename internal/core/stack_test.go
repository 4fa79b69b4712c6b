package core

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"slices"
	"testing"

	"videodb/internal/segment"
)

// stackCoverage counts the stack shapes the seeds drew, so a run that
// never builds a tombstone-only segment, a shadowed name, a name a
// segment both deletes and re-adds, or a run whose kept tombstones
// delete from older segments fails instead of passing vacuously.
type stackCoverage struct {
	tombOnly, shadowed, reborn, keptTombs int
}

// TestStackCompositionFollowsModel builds seeded random stacks of 2–6
// segments over a small name alphabet and a pool of distinct clip
// records, with random shadowing and tombstones. ApplySegmentBase over
// the stack must hold what a naive replay holds — names, ShotCount and
// re-encoded records — and so must the stack that compacting any
// adjacent run of it leaves.
func TestStackCompositionFollowsModel(t *testing.T) {
	src := openDB(t)
	var pool []*ClipRecord
	for i := 0; i < 3; i++ {
		rec, err := src.Ingest(smallCorpusClip(t, fmt.Sprintf("src-%d", i), uint64(700+i)))
		if err != nil {
			t.Fatal(err)
		}
		pool = append(pool, rec)
	}
	var cov stackCoverage
	for seed := uint64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runStackModel(t, seed, pool, &cov)
		})
	}
	if cov.tombOnly == 0 || cov.shadowed == 0 || cov.reborn == 0 || cov.keptTombs == 0 {
		t.Fatalf("a stack shape was never drawn: %+v", cov)
	}
}

func runStackModel(t *testing.T, seed uint64, pool []*ClipRecord, cov *stackCoverage) {
	r := rand.New(rand.NewPCG(seed, 0))
	dir := t.TempDir()
	var nextID uint64
	writeSeg := func(pf *PendingFlush) *segment.Reader {
		nextID++
		return writeSegmentFile(t, dir, nextID, pf)
	}
	alphabet := []string{"a", "b", "c", "d", "e"}

	// The naive replay: after segment k, models[k+1] maps each live
	// name to its encoded record.
	models := []map[string][]byte{{}}
	var stack []*segment.Reader
	for k, n := 0, 2+r.IntN(5); k < n; k++ {
		model := maps.Clone(models[k])
		pf := &PendingFlush{}
		for _, name := range alphabet {
			if r.IntN(4) == 0 {
				pf.tombs = append(pf.tombs, name)
				delete(model, name)
			}
		}
		for _, name := range alphabet {
			if r.IntN(5) >= 2 {
				continue
			}
			rec := *pool[r.IntN(len(pool))]
			rec.Name = name
			payload, err := EncodeClipRecord(&rec)
			if err != nil {
				t.Fatal(err)
			}
			if _, held := models[k][name]; held {
				cov.shadowed++
			}
			if slices.Contains(pf.tombs, name) {
				cov.reborn++
			}
			pf.refs = append(pf.refs, clipRef{rec: &rec})
			model[name] = payload
		}
		if len(pf.refs) == 0 && len(pf.tombs) == 0 {
			pf.tombs = []string{alphabet[r.IntN(len(alphabet))]}
			delete(model, pf.tombs[0])
		}
		if len(pf.refs) == 0 {
			cov.tombOnly++
		}
		stack = append(stack, writeSeg(pf))
		models = append(models, model)
	}
	want := models[len(stack)]

	step := 0
	apply := func(label string, segs []*segment.Reader) {
		t.Helper()
		t.Logf("step %d: %s", step, label)
		db := openDB(t)
		if err := db.ApplySegmentBase(segs, 4); err != nil {
			t.Fatalf("seed %d, %s: ApplySegmentBase: %v", seed, label, err)
		}
		checkCatalog(t, seed, step, db, want)
		step++
	}
	apply("the whole stack", stack)

	for start := 0; start < len(stack); start++ {
		for end := start + 1; end <= len(stack); end++ {
			pf := Compaction(stack[start:end], start > 0)
			if pf != nil && start == 0 && pf.Tombstones() != 0 {
				t.Fatalf("seed %d: run [%d,%d) includes the oldest segment yet keeps %d tombstones",
					seed, start, end, pf.Tombstones())
			}
			if pf != nil && start > 0 {
				// A kept tombstone matters when it deletes a name that an
				// older segment holds and the run does not re-add.
				for _, name := range pf.tombs {
					_, older := models[start][name]
					readded := slices.ContainsFunc(pf.refs, func(ref clipRef) bool {
						return ref.seg.Name(ref.idx) == name
					})
					if older && !readded {
						cov.keptTombs++
					}
				}
			}
			next := append([]*segment.Reader(nil), stack[:start]...)
			if pf != nil {
				next = append(next, writeSeg(pf))
			}
			next = append(next, stack[end:]...)
			apply(fmt.Sprintf("run [%d,%d) compacted", start, end), next)
		}
	}
}
