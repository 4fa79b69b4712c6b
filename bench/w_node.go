package main

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"videodb/internal/core"
)

// node_narrow: one in-memory node over loopback HTTP; the paper's
// query → entry point → scene-tree session at a size where the fixed
// per-request cost is nearly all there is.
//
// Roles: op = GET /api/query; alt = browse (tree and clip fetches).

const (
	// narrowTol freezes α = β so the median answer around a corpus shot
	// has ≈13 matches on corpus_5k; points outside the sizing's
	// NarrowMin..NarrowMax (8–32) are redrawn.
	narrowTol = 0.03
	// narrowPoolSize fits the 4,096-entry query cache with room to
	// spare; Zipf(1.1) decides how often each point repeats.
	narrowPoolSize = 2048
	zipfS          = 1.1
	browsePoolSize = 256
	similarK       = 8
)

const (
	classQuery = iota
	classSimilar
	classBrowse
)

// readPool is a set of prepared GET requests to one base URL, with
// their oracle counts.
type readPool struct {
	base string
	ops  []op
}

func (p *readPool) add(class int, path, key string, want int) {
	p.ops = append(p.ops, op{Class: class, Method: http.MethodGet, URL: p.base + path, Key: key, Want: want})
}

// any returns a uniformly drawn request of the pool.
func (p *readPool) any(r *rng) op { return p.ops[r.intn(len(p.ops))] }

// narrowQueries draws n narrow query points around corpus shots whose
// uncached answer on db has sz.NarrowMin to sz.NarrowMax matches, so that
// whichever points Zipf makes hot, a request costs about the same.
func narrowQueries(db *core.Database, base string, feats []featPoint, r *rng, n int, sz sizing) ([]queryPoint, *readPool, error) {
	points := make([]queryPoint, 0, n)
	pool := &readPool{base: base}
	for tries := 0; len(points) < n; tries++ {
		if tries > 200*n {
			return nil, nil, fmt.Errorf("corpus too sparse: %d of %d query points after %d draws", len(points), n, tries)
		}
		q := around(feats, r, narrowTol)
		want, err := db.QueryUncached(q.query(), q.options())
		if err != nil {
			return nil, nil, err
		}
		if len(want) < sz.NarrowMin || len(want) > sz.NarrowMax {
			continue
		}
		points = append(points, q)
		pool.add(classQuery, q.path(), "clip", len(want))
	}
	return points, pool, nil
}

type nodeNarrow struct {
	readOnly
	cfg    runConfig
	r      *rng
	corpus *servingCorpus
	node   *node

	points  []queryPoint
	queries *readPool
	similar *readPool
	browse  *readPool
	zipf    *zipf
}

func newNodeNarrow(cfg runConfig) *nodeNarrow {
	return &nodeNarrow{cfg: cfg, r: newRNG(cfg.Seed)}
}

func (w *nodeNarrow) inputs(base []*core.ClipRecord) (err error) {
	w.corpus, err = replicate(base, w.cfg.Size.Replicas, w.r.fork(0))
	return err
}

func (w *nodeNarrow) boot() error {
	w.stop()
	n, err := startMemNode(w.corpus.Payloads)
	if err != nil {
		return err
	}
	w.node = n
	return firstAnswer(n.URL, n.DB.ShotCount(), w.corpus.Shots)
}

// firstAnswer is where every boot ends: one request answered over the
// real listener, and the whole corpus visible.
func firstAnswer(base string, shots, want int) error {
	if shots != want {
		return fmt.Errorf("system holds %d shots, corpus has %d", shots, want)
	}
	hc := &http.Client{Timeout: 10 * time.Second}
	defer hc.CloseIdleConnections()
	c := newCaller(hc)
	if _, ok := c.do(op{Method: http.MethodGet, URL: base + "/api/query?varba=1&varoa=1"}); !ok {
		return fmt.Errorf("first answer: %w", c.LastErr)
	}
	return nil
}

func (w *nodeNarrow) prepare() (err error) {
	db := w.node.DB
	w.points, w.queries, err = narrowQueries(db, w.node.URL, w.corpus.Features, w.r.fork(1), narrowPoolSize, w.cfg.Size)
	if err != nil {
		return err
	}
	w.zipf = newZipf(narrowPoolSize, zipfS)
	w.similar, w.browse = &readPool{base: w.node.URL}, &readPool{base: w.node.URL}
	pick := w.r.fork(2)
	for i := 0; i < browsePoolSize; i++ {
		p := w.corpus.Payloads[pick.intn(len(w.corpus.Payloads))]
		shot := pick.intn(p.Shots)
		ms, err := db.QueryByShot(p.Name, shot, similarK)
		if err != nil {
			return err
		}
		w.similar.add(classSimilar, "/api/similar?clip="+url.QueryEscape(p.Name)+
			"&shot="+strconv.Itoa(shot)+"&k="+strconv.Itoa(similarK), "clip", len(ms))
		tree, err := db.Browse(p.Name)
		if err != nil {
			return err
		}
		// Two tree fetches for every clip fetch, as in the session mix.
		w.browse.add(classBrowse, treePath(p.Name), "repFrame", tree.NodeCount())
		if i%2 == 1 {
			w.browse.add(classBrowse, clipPath(p.Name), "repFrame", p.Shots)
		}
	}
	return nil
}

func (w *nodeNarrow) target() string { return w.node.URL }

func (w *nodeNarrow) precheck() []queryPoint {
	return w.points[:min(w.cfg.Size.Precheck, len(w.points))]
}

func (w *nodeNarrow) oracle(q queryPoint) ([]core.Match, error) {
	return w.node.DB.QueryUncached(q.query(), q.options())
}

func (w *nodeNarrow) classes() []string { return []string{"query", "similar", "browse"} }

func (w *nodeNarrow) roles() (op, alt int) { return classQuery, classBrowse }

// clients mixes 70 % narrow queries on Zipf-ranked points, 15 %
// similar-by-shot, and 15 % browsing (10 % tree, 5 % clip), in a fixed
// seeded pattern so every cycle of mixLen requests has exactly that mix.
func (w *nodeNarrow) clients(n int) []func() op {
	nexts := make([]func() op, n)
	for i := range nexts {
		r := w.r.fork(uint64(100 + i))
		class := newMix([]int{classQuery: 14, classSimilar: 3, classBrowse: 3}, r)
		nexts[i] = func() op {
			switch class() {
			case classQuery:
				return w.queries.ops[w.zipf.sample(r)]
			case classSimilar:
				return w.similar.any(r)
			default:
				return w.browse.any(r)
			}
		}
	}
	return nexts
}

func (w *nodeNarrow) ladder(tr *tracer, res *result, budget time.Duration) error {
	res.Metrics["core.cache_hit_ratio"] = cacheHitRatio(w.node.DB)
	l := &queryLadder{tr: tr, res: res, log: w.cfg.logf, front: w.node.listener, backs: []*node{w.node}}
	r := w.r.fork(3)
	return l.run(budget, func() queryPoint { return w.points[w.zipf.sample(r)] })
}

// cacheHitRatio is the query cache's hit share over everything the
// databases have served so far.
func cacheHitRatio(dbs ...*core.Database) float64 {
	var hits, total float64
	for _, db := range dbs {
		cs := db.QueryCacheStats()
		hits += float64(cs.Hits)
		total += float64(cs.Hits + cs.Misses)
	}
	return ratio(hits, total)
}

func (w *nodeNarrow) stop() {
	if w.node != nil {
		w.node.stop()
		w.node = nil
	}
}
