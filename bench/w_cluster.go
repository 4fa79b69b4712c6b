package main

import (
	"fmt"
	"net/http"
	"time"

	"videodb/internal/core"
)

// cluster_wide: a coordinator over three in-memory shards answering
// α = β = 1.0 queries of ≈3.4k matches whose points never repeat, so
// every query cache is bypassed by construction and bytes, fan-out and
// merge are what is measured.
//
// Roles: op = GET /api/query through the coordinator; alt = POST
// /api/query/batch of 16.

const (
	classWide = iota
	classBatch
)

const batchSize = 16

// wideCentres is how many query centres the wide queries spread over.
const wideCentres = 64

type clusterWide struct {
	readOnly
	cfg    runConfig
	r      *rng
	corpus *servingCorpus
	// sentinel is a clip no query can match; the traced ladder
	// re-imports it to empty the shards' query caches.
	sentinel []byte
	sut      *clusterSUT
	union    *core.Database
	// centres are query points whose answer has at least WideMin
	// matches; every query is a centre moved by up to ±0.5 %, which
	// makes it new to every cache and leaves its answer as long.
	centres []queryPoint
	checks  []queryPoint

	// issued remembers, per client, the queries behind each op so the
	// oracle can be asked after the clock stopped.
	issued [][][]queryPoint
}

func newClusterWide(cfg runConfig) *clusterWide {
	return &clusterWide{cfg: cfg, r: newRNG(cfg.Seed)}
}

func (w *clusterWide) inputs(base []*core.ClipRecord) (err error) {
	if w.corpus, err = replicate(base, w.cfg.Size.Replicas, w.r.fork(0)); err != nil {
		return err
	}
	far := *base[0]
	far.Name = "~sentinel"
	far.Shots = append([]core.ShotRecord(nil), far.Shots...)
	for i := range far.Shots {
		// sqrt(VarBA) = 1e6 is outside Eq. 8's window of any query here.
		far.Shots[i].Feature.VarBA, far.Shots[i].Feature.VarOA = 1e12, 1e12
	}
	w.sentinel, err = core.EncodeClipRecord(&far)
	return err
}

func (w *clusterWide) boot() error {
	w.stop()
	sut, err := startCluster(w.corpus.Payloads)
	if err != nil {
		return err
	}
	w.sut = sut
	shots := 0
	for _, n := range sut.Shards {
		shots += n.DB.ShotCount()
	}
	return firstAnswer(sut.URL, shots, w.corpus.Shots)
}

// prepare loads the union database the coordinator must be
// indistinguishable from.
func (w *clusterWide) prepare() (err error) {
	if w.union, err = core.Open(core.DefaultOptions()); err != nil {
		return err
	}
	if err := load(w.union, w.corpus.Payloads); err != nil {
		return err
	}
	r := w.r.fork(1)
	var dst []core.Match
	for tries := 0; len(w.centres) < wideCentres; tries++ {
		if tries > 100*wideCentres {
			return fmt.Errorf("corpus too sparse: %d of %d wide centres after %d draws", len(w.centres), wideCentres, tries)
		}
		q := around(w.corpus.Features, r, 0)
		if dst, err = w.union.QueryUncachedAppend(dst[:0], q.query(), q.options()); err != nil {
			return err
		}
		if len(dst) >= w.cfg.Size.WideMin {
			w.centres = append(w.centres, q)
		}
	}
	for i := 0; i < w.cfg.Size.WidePrecheck; i++ {
		w.checks = append(w.checks, w.wide(r))
	}
	return nil
}

// wide returns a never-issued-before query next to a random centre.
func (w *clusterWide) wide(r *rng) queryPoint {
	c := w.centres[r.intn(len(w.centres))]
	return queryPoint{VarBA: r.jitter(c.VarBA, 0.005), VarOA: r.jitter(c.VarOA, 0.005)}
}

func (w *clusterWide) target() string         { return w.sut.URL }
func (w *clusterWide) precheck() []queryPoint { return w.checks }

func (w *clusterWide) oracle(q queryPoint) ([]core.Match, error) {
	return w.union.QueryUncached(q.query(), q.options())
}

func (w *clusterWide) classes() []string { return []string{"query", "batch"} }

func (w *clusterWide) roles() (op, alt int) { return classWide, classBatch }

// clients mixes 90 % single wide queries with 10 % batches of 16 in a
// fixed seeded pattern. The right count of every answer is settled
// after the run: asking the oracle inside the loop would spend the
// clients' CPU share on it.
func (w *clusterWide) clients(n int) []func() op {
	first := len(w.issued)
	w.issued = append(w.issued, make([][][]queryPoint, n)...)
	nexts := make([]func() op, n)
	for i := range nexts {
		r := w.r.fork(uint64(100 + first + i))
		class := newMix([]int{classWide: 18, classBatch: 2}, r)
		slot := first + i
		nexts[i] = func() op {
			o := op{Key: "clip", Want: -1, Ref: slot<<32 | len(w.issued[slot])}
			if class() == classWide {
				q := w.wide(r)
				w.issued[slot] = append(w.issued[slot], []queryPoint{q})
				o.Class, o.Method, o.URL = classWide, http.MethodGet, w.sut.URL+q.path()
				return o
			}
			var qs []queryPoint
			body := batchBody(func() queryPoint {
				qs = append(qs, w.wide(r))
				return qs[len(qs)-1]
			}, batchSize)
			w.issued[slot] = append(w.issued[slot], qs)
			o.Class, o.Method, o.URL, o.Body = classBatch, http.MethodPost, w.sut.URL+"/api/query/batch", body
			return o
		}
	}
	return nexts
}

// settle asks the oracle for the match count of every answered op.
func (w *clusterWide) settle(res *result, clients [][]sample, _ time.Duration) {
	var dst []core.Match
	wrong := 0
	for _, samples := range clients {
		for _, s := range samples {
			if s.Ref < 0 {
				continue
			}
			want := 0
			for _, q := range w.issued[s.Ref>>32][s.Ref&(1<<32-1)] {
				var err error
				if dst, err = w.union.QueryUncachedAppend(dst[:0], q.query(), q.options()); err != nil {
					wrong++
					continue
				}
				want += len(dst)
			}
			if want != s.Got {
				wrong++
			}
		}
	}
	res.fail(wrong, "answer's match count differs from the union database", w.cfg.logf)
}

func (w *clusterWide) ladder(tr *tracer, res *result, budget time.Duration) error {
	dbs := make([]*core.Database, len(w.sut.Shards))
	for i, n := range w.sut.Shards {
		dbs[i] = n.DB
	}
	res.Metrics["core.cache_hit_ratio"] = cacheHitRatio(dbs...)
	l := &queryLadder{tr: tr, res: res, log: w.cfg.logf, front: w.sut.listener,
		coordinator: true, backs: w.sut.Shards, sentinel: w.sentinel}
	r := w.r.fork(3)
	return l.run(budget, func() queryPoint { return w.wide(r) })
}

func (w *clusterWide) stop() {
	if w.sut != nil {
		w.sut.stop()
		w.sut = nil
	}
}
