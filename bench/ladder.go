package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"videodb/internal/core"
	"videodb/internal/varindex"
)

// queryLadder replays each sampled query through every rung of the
// read path, outside in, back to back: coordinator → direct shard
// HTTP → handler into a recorder → core → the varindex kernel on an
// index rebuilt from the node's own records. Each rung is a span whose
// child is the rung below, so a rung's self time is what it adds.
type queryLadder struct {
	tr  *tracer
	res *result
	log func(string, ...any)
	// front is what the workload's clients talk to. With coordinator
	// set it is a cluster front end over backs; otherwise backs[0] is
	// the same node.
	front       *listener
	coordinator bool
	backs       []*node
	// sentinel, when set, is re-imported into a node before each rung
	// that reads it. Publishing a view empties the node's query cache,
	// so every rung pays a cache miss, as cluster_wide's never-repeated
	// queries do. Without it every rung is primed to hit, as
	// node_narrow's repeated queries do.
	sentinel []byte
}

func (l *queryLadder) invalidate(nodes ...*node) error {
	if l.sentinel == nil {
		return nil
	}
	for _, n := range nodes {
		if _, err := n.DB.ImportClipRecord(l.sentinel); err != nil {
			return fmt.Errorf("re-importing the sentinel: %w", err)
		}
	}
	return nil
}

// indexOf rebuilds a node's similarity index from its records, the
// way core does, so the kernel can be timed with nothing around it.
func indexOf(db *core.Database) *varindex.Index {
	ix := varindex.New()
	for _, rec := range db.Records() {
		for k, sr := range rec.Shots {
			ix.Add(varindex.Entry{Clip: rec.Name, Shot: k,
				Start: sr.Shot.Start, End: sr.Shot.End,
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA, MeanBA: sr.Feature.MeanBA})
		}
	}
	ix.Build()
	return ix
}

func (l *queryLadder) run(budget time.Duration, next func() queryPoint) error {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	c := newCaller(hc)
	if err := l.invalidate(l.backs...); err != nil {
		return err
	}
	indexes := make([]*varindex.Index, len(l.backs))
	for i, b := range l.backs {
		indexes[i] = indexOf(b.DB)
	}
	var (
		scratch  varindex.Scratch
		entries  []varindex.Entry
		matches  []core.Match
		nMatches []float64
		bytesOut []float64
		batchMS  []float64
		sampled  []queryPoint
		requests int
	)
	get := func(base string, q queryPoint) (time.Time, time.Time, bool) {
		t0 := time.Now()
		_, ok := c.do(op{Method: http.MethodGet, URL: base + q.path()})
		requests++
		return t0, time.Now(), ok
	}
	deadline := time.Now().Add(budget)
	for req := 1; time.Now().Before(deadline); req++ {
		q := next()
		sampled = append(sampled, q)
		parent, slow := 0, 0
		if l.coordinator {
			if err := l.invalidate(l.backs...); err != nil {
				return err
			}
			t0, t1, ok := get(l.front.URL, q)
			if !ok {
				continue
			}
			parent = l.tr.add("cluster.coord", 0, req, t0, t1)
		} else if _, _, ok := get(l.front.URL, q); !ok { // prime the cache
			continue
		}
		// The same query straight at every back end; the slowest call
		// is what a scatter would have waited for.
		var s0, s1 time.Time
		for i, b := range l.backs {
			if err := l.invalidate(b); err != nil {
				return err
			}
			t0, t1, ok := get(b.URL, q)
			if ok && t1.Sub(t0) > s1.Sub(s0) {
				s0, s1, slow = t0, t1, i
			}
		}
		if s1.IsZero() {
			continue
		}
		parent = l.tr.add("http.loopback", parent, req, s0, s1)
		b := l.backs[slow]

		if err := l.invalidate(b); err != nil {
			return err
		}
		rec := httptest.NewRecorder()
		hreq := httptest.NewRequest(http.MethodGet, q.path(), nil)
		t0 := time.Now()
		b.Handler.ServeHTTP(rec, hreq)
		t1 := time.Now()
		parent = l.tr.add("server.handler", parent, req, t0, t1)
		bytesOut = append(bytesOut, float64(rec.Body.Len()))

		if err := l.invalidate(b); err != nil {
			return err
		}
		t0 = time.Now()
		viaCore, err := b.DB.QueryWithOptions(q.query(), q.options())
		t1 = time.Now()
		if err != nil {
			return err
		}
		l.tr.add("core.query", parent, req, t0, t1)

		t0 = time.Now()
		_, err = b.DB.QueryWithOptions(q.query(), q.options())
		t1 = time.Now()
		if err != nil {
			return err
		}
		l.tr.add("core.query_cached", 0, req, t0, t1)

		t0 = time.Now()
		matches, err = b.DB.QueryUncachedAppend(matches[:0], q.query(), q.options())
		t1 = time.Now()
		if err != nil {
			return err
		}
		uncached := l.tr.add("core.query_uncached", 0, req, t0, t1)

		t0 = time.Now()
		entries, err = indexes[slow].SearchAppend(entries[:0], q.query(), q.options(), &scratch)
		t1 = time.Now()
		if err != nil {
			return err
		}
		l.tr.add("varindex.search", uncached, req, t0, t1)
		nMatches = append(nMatches, float64(len(entries)))

		l.res.Attempted++
		got := countKey(rec.Body.Bytes(), "clip", "")
		if rec.Code != http.StatusOK || got != len(entries) || len(matches) != len(entries) || len(viaCore) != len(entries) {
			l.res.fail(1, fmt.Sprintf("rungs disagree on %s: handler %d (status %d), core %d, uncached %d, kernel %d",
				q.path(), got, rec.Code, len(viaCore), len(matches), len(entries)), l.log)
		}

		if l.coordinator && req%8 == 0 {
			body := batchBody(next, 16)
			t0 := time.Now()
			_, ok := c.do(op{Method: http.MethodPost, URL: l.front.URL + "/api/query/batch", Body: body})
			requests++
			if ok {
				l.tr.add("cluster.batch", 0, req, t0, time.Now())
				batchMS = append(batchMS, ms(time.Since(t0)))
			}
		}
	}
	if len(sampled) == 0 {
		return fmt.Errorf("ladder: no query completed in %v", budget)
	}
	l.res.failed(l.log, c)

	// Allocations per call, bracketed in bulk with nothing else running.
	b := l.backs[0]
	handlerAllocs := allocsPer(sampled, func(q queryPoint) {
		b.Handler.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, q.path(), nil))
	})
	coreAllocs := allocsPer(sampled, func(q queryPoint) {
		_, _ = b.DB.QueryWithOptions(q.query(), q.options())
	})

	m := l.res.Metrics
	m["varindex.search_us"], _ = l.tr.medianUS("varindex.search")
	m["varindex.matches_per_query"] = median(nMatches)
	m["core.query_uncached_us"], m["core.query_self_us"] = l.tr.medianUS("core.query_uncached")
	m["core.query_cached_us"], _ = l.tr.medianUS("core.query_cached")
	m["core.query_allocs"] = coreAllocs
	m["server.handler_us"], m["server.handler_self_us"] = l.tr.medianUS("server.handler")
	m["server.handler_allocs"] = handlerAllocs
	m["server.bytes_out_per_query"] = median(bytesOut)
	m["server.shed_ratio"] = ratio(float64(c.Shed), float64(requests))
	m["http.loopback_us"], m["http.loopback_self_us"] = l.tr.medianUS("http.loopback")
	m["cluster.coord_us"], m["cluster.coord_self_us"] = l.tr.medianUS("cluster.coord")
	m["cluster.batch_p50_ms"] = median(batchMS)
	l.tr.count("ladder.queries", float64(len(sampled)))
	l.tr.count("ladder.requests", float64(requests))
	l.tr.count("ladder.shed", float64(c.Shed))
	if l.coordinator {
		return l.clusterStatus(hc)
	}
	return nil
}

// allocsPer returns mallocs per call of fn over the given queries.
func allocsPer(qs []queryPoint, fn func(queryPoint)) float64 {
	if len(qs) > 200 {
		qs = qs[:200]
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, q := range qs {
		fn(q)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(len(qs))
}

// batchBody draws n queries and encodes them as a batch request.
func batchBody(next func() queryPoint, n int) []byte {
	type bq struct {
		VarBA float64 `json:"varba"`
		VarOA float64 `json:"varoa"`
	}
	var req struct {
		Queries []bq `json:"queries"`
	}
	for i := 0; i < n; i++ {
		q := next()
		req.Queries = append(req.Queries, bq{q.VarBA, q.VarOA})
	}
	body, _ := json.Marshal(req) // plain floats cannot fail to encode
	return body
}

// clusterStatus reads the coordinator's own counters over its HTTP API.
func (l *queryLadder) clusterStatus(hc *http.Client) error {
	resp, err := hc.Get(l.front.URL + "/api/cluster/status")
	if err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	defer resp.Body.Close()
	var st struct {
		Shards []struct {
			FanoutP99Seconds float64 `json:"fanoutP99Seconds"`
		} `json:"shards"`
		Queries        float64 `json:"queries"`
		Batches        float64 `json:"batches"`
		PartialQueries float64 `json:"partialQueries"`
		Retries        float64 `json:"retries"`
		Hedges         float64 `json:"hedges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return fmt.Errorf("cluster status: %w", err)
	}
	worst := 0.0
	for _, sh := range st.Shards {
		worst = max(worst, sh.FanoutP99Seconds)
	}
	reqs := st.Queries + st.Batches
	m := l.res.Metrics
	m["cluster.fanout_p99_ms"] = worst * 1e3
	m["cluster.retries_per_req"] = ratio(st.Retries, reqs)
	m["cluster.hedges_per_req"] = ratio(st.Hedges, reqs)
	m["cluster.partial_ratio"] = ratio(st.PartialQueries, reqs)
	l.tr.count("cluster.queries", st.Queries)
	l.tr.count("cluster.batches", st.Batches)
	l.tr.count("cluster.retries", st.Retries)
	l.tr.count("cluster.hedges", st.Hedges)
	return nil
}
