package main

import (
	"fmt"
	"runtime"
	"sync"

	"videodb/internal/core"
	"videodb/internal/experiments"
	"videodb/internal/video"
)

// sizing fixes how much work a run does. Everything a metric depends
// on is here, so the numbers of record and the tier-1 smoke test run
// the same code at two sizes.
type sizing struct {
	// Clips is how many Table-5 clips are synthesized (22 = all);
	// Scale is the synthesis scale factor.
	Clips int
	Scale float64
	// Replicas multiplies the ingested records into the serving corpus.
	Replicas int
	// Setups is how many times set-up is repeated for the setup_s median.
	Setups int
	// WarmupSec precedes every measured window.
	WarmupSec float64
	// Precheck is the number of queries held to the oracle entry for
	// entry before timing; WidePrecheck is cluster_wide's, whose answers
	// are ≈250× longer.
	Precheck     int
	WidePrecheck int
	// NarrowMin..NarrowMax bounds the answer size of every narrow query
	// point; WideMin is the least a wide query centre must match.
	NarrowMin, NarrowMax, WideMin int
	// WriteRate is store_rw's paced write rate per second; FlushEvery
	// is the acknowledged-write count that triggers a flush.
	WriteRate  int
	FlushEvery int
}

// fullSizing is the benchmark of record. The Table-5 corpus at scale
// 0.02 is ≈1.1k frames and 73 shots; 68 replicas make corpus_5k
// (1,496 clips, ≈5k shots). Loading is quadratic in the corpus (every
// import rebuilds the published view), which is what caps the size:
// five set-ups per run have to fit the driver's time limit.
func fullSizing() sizing {
	return sizing{
		Clips: 22, Scale: 0.02, Replicas: 68, Setups: 5,
		WarmupSec: 2, Precheck: 256, WidePrecheck: 64,
		NarrowMin: 12, NarrowMax: 20, WideMin: 2500, WriteRate: 100, FlushEvery: 128,
	}
}

// tinySizing keeps every code path but shrinks the work for tests.
func tinySizing() sizing {
	return sizing{
		Clips: 4, Scale: 0.02, Replicas: 6, Setups: 1,
		WarmupSec: 0.2, Precheck: 16, WidePrecheck: 4,
		NarrowMin: 1, NarrowMax: 32, WideMin: 1, WriteRate: 100, FlushEvery: 16,
	}
}

// nproc is the parallelism every load generator and set-up step is
// limited to.
func nproc() int { return runtime.GOMAXPROCS(0) }

// synthCorpus synthesizes the first sz.Clips Table-5 clips, nproc at
// a time. Clip synthesis is seeded by the corpus definition, so the
// pixels are the same on every run.
func synthCorpus(sz sizing) ([]*video.Clip, error) {
	defs := experiments.Table5Corpus()
	if sz.Clips < len(defs) {
		defs = defs[:sz.Clips]
	}
	clips := make([]*video.Clip, len(defs))
	errs := make([]error, len(defs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				clips[i], _, errs[i] = defs[i].Build(sz.Scale)
			}
		}()
	}
	for i := range defs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("synthesizing %q: %w", defs[i].Name, err)
		}
	}
	return clips, nil
}

func countFrames(clips []*video.Clip) int {
	n := 0
	for _, c := range clips {
		n += c.Len()
	}
	return n
}

// clipPayload is one clip of the serving corpus: an opaque encoded
// record plus what the generator needs to aim requests at it.
type clipPayload struct {
	Name  string
	Shots int
	Data  []byte
}

// featPoint is one shot's queryable coordinates.
type featPoint struct{ VarBA, VarOA float64 }

// servingCorpus is what the serving workloads load: the replicated
// records and the feature points queries are aimed around.
type servingCorpus struct {
	Payloads []clipPayload
	Features []featPoint
	Shots    int
}

// baseRecords ingests the pixel corpus once and returns its records.
func baseRecords(clips []*video.Clip) ([]*core.ClipRecord, error) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if err := db.IngestAll(clips); err != nil {
		return nil, fmt.Errorf("ingesting base corpus: %w", err)
	}
	return db.Records(), nil
}

// replicaName names replica r of a base clip.
func replicaName(base string, r int) string { return fmt.Sprintf("%s~%03d", base, r) }

// replicate copies every base record n times under unique names with
// ±20 % seeded jitter on each shot's variances, and encodes each copy.
// From here on the bench treats records as opaque bytes.
func replicate(base []*core.ClipRecord, n int, r *rng) (*servingCorpus, error) {
	sc := &servingCorpus{}
	for rep := 0; rep < n; rep++ {
		for _, rec := range base {
			p, err := encodeJittered(rec, replicaName(rec.Name, rep), r)
			if err != nil {
				return nil, err
			}
			sc.Payloads = append(sc.Payloads, p.clipPayload)
			sc.Features = append(sc.Features, p.feats...)
			sc.Shots += p.Shots
		}
	}
	return sc, nil
}

type jittered struct {
	clipPayload
	feats []featPoint
}

func encodeJittered(rec *core.ClipRecord, name string, r *rng) (jittered, error) {
	cp := *rec
	cp.Name = name
	cp.Shots = append([]core.ShotRecord(nil), rec.Shots...)
	out := jittered{clipPayload: clipPayload{Name: name, Shots: len(cp.Shots)}}
	for i := range cp.Shots {
		f := &cp.Shots[i].Feature
		f.VarBA = r.jitter(f.VarBA, 0.2)
		f.VarOA = r.jitter(f.VarOA, 0.2)
		out.feats = append(out.feats, featPoint{f.VarBA, f.VarOA})
	}
	data, err := core.EncodeClipRecord(&cp)
	if err != nil {
		return jittered{}, fmt.Errorf("encoding %q: %w", name, err)
	}
	out.Data = data
	return out, nil
}

// load imports payloads into db in order.
func load(db *core.Database, payloads []clipPayload) error {
	for _, p := range payloads {
		if _, err := db.ImportClipRecord(p.Data); err != nil {
			return fmt.Errorf("importing %q: %w", p.Name, err)
		}
	}
	return nil
}
