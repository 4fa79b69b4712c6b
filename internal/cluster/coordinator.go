package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/admission"
	"videodb/internal/impression"
	"videodb/internal/server"
	"videodb/internal/varindex"
)

// HeaderPartial marks a scatter-gather answer assembled without every
// shard: some partition of the corpus did not contribute. The body
// carries the same flag as "partial"; the header lets load generators
// count degraded answers without parsing bodies.
const HeaderPartial = "X-Videodb-Partial"

// ShardConfig names one shard: the primary that owns the partition and
// any read replicas that can answer for it.
type ShardConfig struct {
	Primary  string
	Replicas []string
}

// Config configures a Coordinator.
type Config struct {
	// Shards is the partition list. Order is identity: shard i owns the
	// ring arcs of ordinal i, so the list must be identical (same order)
	// on every coordinator, and reordering it reshards the corpus.
	Shards []ShardConfig
	// Vnodes is the virtual-node count per shard (DefaultVnodes if 0).
	Vnodes int
	// Timeout bounds each fan-out attempt (default 10s).
	Timeout time.Duration
	// Retries is how many times a failed read attempt is retried per
	// node before failing over to the next node (default 1). Every
	// retry and failover attempt is additionally paid for from the
	// shared RetryBudget.
	Retries int
	// RetryBudget caps retry, failover and hedge volume at this
	// fraction of primary fan-out traffic (a Finagle-style retry
	// budget, so retry storms cannot amplify an outage). 0 means the
	// default 0.2; a negative value removes the cap.
	RetryBudget float64
	// Hedge enables hedged scatter reads: when a shard has a replica
	// and its primary has not answered within the hedge delay, a backup
	// probe fires at the replica and the first success wins. Hedges are
	// paid from the RetryBudget like retries.
	Hedge bool
	// HedgeDelay is the floor for the hedge delay (default 50ms); once
	// a shard has enough fan-out observations its p99 latency is used
	// instead, clamped to [HedgeDelay, Timeout/2].
	HedgeDelay time.Duration
	// ReplicaReads enables bounded-staleness replica reads: while a
	// shard's primary is healthy, scatter reads rotate round-robin
	// across the primary and every replica whose replication lag is
	// known and within StalenessBound, spreading read load instead of
	// only failing over (or hedging) to replicas.
	ReplicaReads bool
	// StalenessBound is the largest byte lag (inclusive) a replica may
	// show and still serve rotated reads. 0 admits only fully caught-up
	// replicas. Ignored unless ReplicaReads is set.
	StalenessBound int64
	// ProbeInterval is the health-probe period (default 2s).
	ProbeInterval time.Duration
	// Client overrides the HTTP client (tests inject httptest clients).
	Client *http.Client
	// Logger receives fan-out failures; nil discards.
	Logger *slog.Logger
}

// Coordinator fronts a sharded cluster with the single-node HTTP API:
// scatter-gather for queries and listings, ring routing for writes and
// per-clip reads, health-checked failover to replicas. Create with
// New, serve Handler, stop with Close.
type Coordinator struct {
	topo           atomic.Pointer[topology]
	vnodes         int
	client         *http.Client
	timeout        time.Duration
	retries        int
	budget         *retryBudget
	hedge          bool
	hedgeFloor     time.Duration
	replicaReads   bool
	stalenessBound int64
	probeInterval  time.Duration
	log            *slog.Logger
	metrics        *coordMetrics

	// reshardMu is the cutover write barrier: mutating handlers hold it
	// for read, so the rebalancer's final delta-sync + ring swap (which
	// holds it for write) sees a quiesced write path. Reads never take
	// it — they go lock-free through the topology pointer.
	reshardMu sync.RWMutex
	reshard   reshardState

	stop chan struct{}
	wg   sync.WaitGroup
}

// topology is the coordinator's routing state — the ring and the shard
// list it indexes — swapped atomically as one unit, so a reader can
// never pair a new ring with an old shard list mid-reshard.
type topology struct {
	ring   *Ring
	shards []*shard

	// readers counts the reads routed by this topology that are still in
	// flight, plus one for being the current topology. A reshard retires
	// the old topology after the swap and waits on drained before its
	// first source delete, so a read that pinned the old shard list can
	// never reach a source the cleanup already emptied.
	readers   atomic.Int64
	drainOnce sync.Once
	drained   chan struct{}
}

func newTopology(ring *Ring, shards []*shard) *topology {
	t := &topology{ring: ring, shards: shards, drained: make(chan struct{})}
	t.readers.Store(1)
	return t
}

// release ends one read pinned by pinTopology; retiring a swapped-out
// topology is the same call on the reference New and Reshard gave it.
func (t *topology) release() {
	if t.readers.Add(-1) == 0 {
		t.drainOnce.Do(func() { close(t.drained) })
	}
}

// pinTopology returns the current topology with a reader reference
// held; the caller releases it when its gather ends. The re-check closes
// the window between loading the pointer and registering as a reader: a
// reshard that swapped in between has stopped counting on this reader,
// so the pin is retried against the new topology.
func (c *Coordinator) pinTopology() *topology {
	for {
		t := c.topo.Load()
		t.readers.Add(1)
		if c.topo.Load() == t {
			return t
		}
		t.release()
	}
}

// New builds a coordinator and starts its health prober.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("cluster: coordinator needs at least one shard")
	}
	c := &Coordinator{
		vnodes:         cfg.Vnodes,
		client:         cfg.Client,
		timeout:        cfg.Timeout,
		retries:        cfg.Retries,
		hedge:          cfg.Hedge,
		hedgeFloor:     cfg.HedgeDelay,
		replicaReads:   cfg.ReplicaReads,
		stalenessBound: cfg.StalenessBound,
		probeInterval:  cfg.ProbeInterval,
		log:            cfg.Logger,
		metrics:        newCoordMetrics(),
		stop:           make(chan struct{}),
	}
	ratio := cfg.RetryBudget
	if ratio == 0 {
		ratio = 0.2
	}
	c.budget = newRetryBudget(ratio)
	if c.hedgeFloor <= 0 {
		c.hedgeFloor = 50 * time.Millisecond
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.timeout <= 0 {
		c.timeout = 10 * time.Second
	}
	if c.retries < 0 {
		c.retries = 0
	} else if cfg.Retries == 0 {
		c.retries = 1
	}
	if c.probeInterval <= 0 {
		c.probeInterval = 2 * time.Second
	}
	if c.log == nil {
		c.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	shards := make([]*shard, 0, len(cfg.Shards))
	for i, sc := range cfg.Shards {
		shards = append(shards, newShard(i, sc))
	}
	c.topo.Store(newTopology(NewRing(len(shards), c.vnodes), shards))
	c.wg.Add(1)
	go c.probeLoop()
	return c, nil
}

// Close stops the health prober.
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
}

// Handler returns the coordinator's HTTP handler. It serves the same
// endpoints a single vdbserver does, plus GET /api/cluster/status.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/query", c.handleQuery)
	mux.HandleFunc("POST /api/query/batch", c.handleQueryBatch)
	mux.HandleFunc("GET /api/clips", c.handleClips)
	mux.HandleFunc("POST /api/clips", c.handleIngest)
	mux.HandleFunc("GET /api/clips/{name}", c.handleClipRead)
	mux.HandleFunc("GET /api/clips/{name}/tree", c.handleClipRead)
	mux.HandleFunc("DELETE /api/clips/{name}", c.handleClipWrite)
	mux.HandleFunc("GET /api/similar", c.handleSimilar)
	mux.HandleFunc("GET /api/cluster/status", c.handleStatus)
	mux.HandleFunc("POST /api/cluster/reshard", c.handleReshard)
	mux.HandleFunc("GET /api/health", c.handleHealth)
	mux.HandleFunc("GET /api/metrics", c.handleMetrics)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// writeShardError relays a shard's refusal to the client, preserving
// the status code and any Retry-After hint (a shed shard tells the
// client when to come back; the coordinator must not swallow that).
func writeShardError(w http.ResponseWriter, se *shardError, context string) {
	if se.retryAfter != "" {
		w.Header().Set("Retry-After", se.retryAfter)
	}
	writeError(w, se.code, fmt.Errorf("%s: %s", context, se.body))
}

// shardError is a non-retryable backend answer: a 4xx means the shard
// spoke and refused the request, and a 429 specifically is the shard
// shedding load — backpressure that must propagate to the client (with
// its Retry-After hint) rather than be retried into the overload or
// counted as a shard failure.
type shardError struct {
	code       int
	body       string
	retryAfter string
}

func (e *shardError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// backpressure reports whether the error is a shard shedding load.
func (e *shardError) backpressure() bool { return e.code == http.StatusTooManyRequests }

// fetchFn performs one attempt of a shard fetch against one node.
type fetchFn func(ctx context.Context, n *node) ([]byte, error)

// shardGet fans one read to a shard through shardFetch.
func (c *Coordinator) shardGet(ctx context.Context, sh *shard, pathq string, out any) error {
	return c.shardFetch(ctx, sh, func(ctx context.Context, n *node) ([]byte, error) {
		return c.nodeGet(ctx, n, pathq, sh)
	}, out)
}

// shardFetch is the one read path to a shard: primary first with an
// optional hedged backup probe, then sequential failover across
// replicas (a down primary sorts last — read-side promotion), each node
// tried 1+Retries times with a short backoff.
//
// The first attempt is free; every extra attempt — hedge, retry or
// failover — must be paid for from the shared retry budget, so a broken
// shard degrades this one answer instead of amplifying into a retry
// storm. Network errors and 5xx answers mark the node down and move on;
// a 4xx returns immediately (the backend refused a well-delivered
// request), and a 429 returns immediately as backpressure.
func (c *Coordinator) shardFetch(ctx context.Context, sh *shard, do fetchFn, out any) error {
	c.budget.deposit()
	c.metrics.add("fetches", 1)
	order := c.readOrder(sh)

	finish := func(body []byte) error {
		if out == nil {
			return nil
		}
		return json.Unmarshal(body, out)
	}
	classify := func(err error) (*shardError, bool) {
		var se *shardError
		if asShardError(err, &se) {
			if se.backpressure() {
				c.metrics.add("backpressure", 1)
			}
			return se, true
		}
		return nil, false
	}

	// First round: the primary-order node, plus a hedged probe to the
	// next node if the first has not answered within the hedge delay.
	type result struct {
		body   []byte
		err    error
		hedged bool
	}
	resCh := make(chan result, 2) // buffered: a losing straggler must not leak its goroutine
	launch := func(n *node, hedged bool) {
		go func() {
			body, err := do(ctx, n)
			resCh <- result{body, err, hedged}
		}()
	}
	launch(order[0], false)
	inflight := 1
	hedged := false

	var hedgeC <-chan time.Time
	if c.hedge && len(order) > 1 {
		t := time.NewTimer(sh.hedgeDelay(c.hedgeFloor, c.timeout))
		defer t.Stop()
		hedgeC = t.C
	}

	var lastErr error
	for inflight > 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if !c.budget.take() {
				c.metrics.add("hedges_suppressed", 1)
				continue
			}
			c.metrics.add("hedges", 1)
			launch(order[1], true)
			inflight++
			hedged = true
		case r := <-resCh:
			inflight--
			if r.err == nil {
				if r.hedged {
					c.metrics.add("hedge_wins", 1)
				}
				return finish(r.body)
			}
			if se, ok := classify(r.err); ok {
				return se
			}
			lastErr = r.err
		}
	}

	// Fallback walk: every node in order, sequentially, skipping the
	// first attempts the round above already burned.
	tried := map[*node]bool{order[0]: true}
	if hedged {
		tried[order[1]] = true
	}
	backoff := 0
	for _, n := range order {
		for attempt := 0; attempt <= c.retries; attempt++ {
			if attempt == 0 && tried[n] {
				continue
			}
			if !c.budget.take() {
				c.metrics.add("retries_suppressed", 1)
				c.metrics.add("shard_failures", 1)
				return fmt.Errorf("shard %d: retry budget exhausted: %w", sh.id, lastErr)
			}
			c.metrics.add("retries", 1)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(25<<min(backoff, 4)) * time.Millisecond):
			}
			backoff++
			body, err := do(ctx, n)
			if err == nil {
				return finish(body)
			}
			if se, ok := classify(err); ok {
				return se
			}
			lastErr = err
		}
	}
	c.metrics.add("shard_failures", 1)
	return fmt.Errorf("shard %d unreachable: %w", sh.id, lastErr)
}

func asShardError(err error, out **shardError) bool {
	se, ok := err.(*shardError)
	if ok {
		*out = se
	}
	return ok
}

// clientKeyCtx carries the inbound request's client identity through a
// handler's context into fan-out requests.
type clientKeyCtx struct{}

// clientContext returns r's context, annotated with the client identity
// header so shard-side per-client rate limits see the originating
// client rather than lumping everything under the coordinator's IP.
func clientContext(r *http.Request) context.Context {
	ctx := r.Context()
	if k := r.Header.Get(admission.ClientHeader); k != "" {
		ctx = context.WithValue(ctx, clientKeyCtx{}, k)
	}
	return ctx
}

// forwardClient stamps the originating client identity onto a fan-out
// request when the handler recorded one.
func forwardClient(ctx context.Context, req *http.Request) {
	if k, ok := ctx.Value(clientKeyCtx{}).(string); ok {
		req.Header.Set(admission.ClientHeader, k)
	}
}

// nodeGet performs one GET attempt against one node.
func (c *Coordinator) nodeGet(ctx context.Context, n *node, pathq string, sh *shard) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+pathq, nil)
	if err != nil {
		return nil, err
	}
	forwardClient(ctx, req)
	start := time.Now()
	c.metrics.add("shard_requests", 1)
	resp, err := c.client.Do(req)
	if err != nil {
		n.markDown(err)
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		n.markDown(err)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		err := fmt.Errorf("%s: status %d", n.url, resp.StatusCode)
		n.markDown(err)
		return nil, err
	}
	n.markUp(nil)
	sh.observeFanout(time.Since(start))
	if resp.StatusCode != http.StatusOK {
		return nil, &shardError{
			code:       resp.StatusCode,
			body:       string(body),
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return body, nil
}

// scatter fans fetch to every shard of the current topology
// concurrently. A shard whose fetch fails contributes nothing and flips
// partial; a 4xx from any shard aborts the gather (the same request
// would 4xx everywhere). The topology is pinned for the whole gather, so
// a reshard landing mid-gather can neither tear the shard list nor start
// deleting moved clips from the sources this gather is still reading.
func scatter[T any](c *Coordinator, ctx context.Context, fetch func(sh *shard) (T, error)) (parts []T, partial bool, reject *shardError) {
	t := c.pinTopology()
	defer t.release()
	shards := t.shards
	results := make([]T, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			results[i], errs[i] = fetch(sh)
		}(i, sh)
	}
	wg.Wait()
	parts = make([]T, 0, len(results))
	for i, err := range errs {
		if err != nil {
			var se *shardError
			if asShardError(err, &se) {
				return nil, false, se
			}
			c.log.Warn("shard dropped from gather", "shard", i, "err", err)
			partial = true
			continue
		}
		parts = append(parts, results[i])
	}
	return parts, partial, nil
}

// parseQueryPoint mirrors the single-node handler's query parsing so
// the coordinator can (a) reject bad queries before fanning out and
// (b) recompute the distance order the shards used when merging.
func parseQueryPoint(r *http.Request) (varindex.Query, error) {
	if imp := r.URL.Query().Get("impression"); imp != "" {
		parsed, err := impression.Parse(imp)
		if err != nil {
			return varindex.Query{}, err
		}
		return parsed.Query(), nil
	}
	var q varindex.Query
	var err error
	if q.VarBA, err = strconv.ParseFloat(r.URL.Query().Get("varba"), 64); err != nil {
		return varindex.Query{}, fmt.Errorf("need varba and varoa (or impression=...)")
	}
	if q.VarOA, err = strconv.ParseFloat(r.URL.Query().Get("varoa"), 64); err != nil {
		return varindex.Query{}, fmt.Errorf("need varba and varoa (or impression=...)")
	}
	if err := q.Validate(); err != nil {
		return varindex.Query{}, err
	}
	return q, nil
}

// QueryResponseJSON is the coordinator's GET /api/query answer: the
// merged matches plus the partial marker. (A single node returns the
// bare match array; the coordinator wraps it because "who answered" is
// meaningful only behind a scatter.)
type QueryResponseJSON struct {
	Matches []server.MatchJSON `json:"matches"`
	Partial bool               `json:"partial"`
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, err := parseQueryPoint(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	pathq := "/api/query?" + r.URL.RawQuery
	ctx := clientContext(r)
	parts, partial, reject := scatter(c, ctx, func(sh *shard) ([]server.MatchJSON, error) {
		var matches []server.MatchJSON
		err := c.shardGet(ctx, sh, pathq, &matches)
		return matches, err
	})
	if reject != nil {
		writeShardError(w, reject, "shard rejected query")
		return
	}
	if len(parts) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard reachable"))
		return
	}
	c.metrics.add("queries", 1)
	if partial {
		c.metrics.add("partial", 1)
	}
	w.Header().Set(HeaderPartial, strconv.FormatBool(partial))
	writeJSON(w, QueryResponseJSON{Matches: mergeMatches(q, parts), Partial: partial})
}

// BatchResponseJSON is the coordinator's POST /api/query/batch answer:
// the single-node shape plus the partial marker.
type BatchResponseJSON struct {
	Results [][]server.MatchJSON `json:"results"`
	Partial bool                 `json:"partial"`
}

func (c *Coordinator) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading batch body: %w", err))
		return
	}
	var req server.BatchRequestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding batch body: %w", err))
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("batch has no queries"))
		return
	}
	// The merge needs each query's point in the similarity plane; the
	// shards re-derive the same points from the forwarded body.
	points := make([]varindex.Query, len(req.Queries))
	for i, bq := range req.Queries {
		switch {
		case bq.Impression != "":
			parsed, err := impression.Parse(bq.Impression)
			if err != nil {
				writeError(w, http.StatusUnprocessableEntity, fmt.Errorf("query %d: %w", i, err))
				return
			}
			points[i] = parsed.Query()
		case bq.VarBA != nil && bq.VarOA != nil:
			points[i] = varindex.Query{VarBA: *bq.VarBA, VarOA: *bq.VarOA}
		default:
			writeError(w, http.StatusUnprocessableEntity,
				fmt.Errorf("query %d: need varba and varoa (or impression)", i))
			return
		}
	}
	ctx := clientContext(r)
	parts, partial, reject := scatter(c, ctx, func(sh *shard) ([][]server.MatchJSON, error) {
		var resp server.BatchResponseJSON
		err := c.shardPost(ctx, sh, "/api/query/batch", body, &resp)
		return resp.Results, err
	})
	if reject != nil {
		writeShardError(w, reject, "shard rejected batch")
		return
	}
	if len(parts) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard reachable"))
		return
	}
	c.metrics.add("batches", 1)
	if partial {
		c.metrics.add("partial", 1)
	}
	merged := make([][]server.MatchJSON, len(points))
	for i := range points {
		per := make([][]server.MatchJSON, 0, len(parts))
		for _, p := range parts {
			if i < len(p) {
				per = append(per, p[i])
			}
		}
		merged[i] = mergeMatches(points[i], per)
	}
	w.Header().Set(HeaderPartial, strconv.FormatBool(partial))
	writeJSON(w, BatchResponseJSON{Results: merged, Partial: partial})
}

// shardPost sends one JSON POST to a shard with the same hedging,
// budget and failover discipline as shardGet. The body is a byte
// slice, so every attempt resends identical bytes (batch queries are
// idempotent, which is also what makes them safe to hedge).
func (c *Coordinator) shardPost(ctx context.Context, sh *shard, path string, body []byte, out any) error {
	return c.shardFetch(ctx, sh, func(ctx context.Context, n *node) ([]byte, error) {
		return c.nodePost(ctx, n, sh, path, body)
	}, out)
}

func (c *Coordinator) nodePost(ctx context.Context, n *node, sh *shard, path string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, n.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	forwardClient(ctx, req)
	start := time.Now()
	c.metrics.add("shard_requests", 1)
	resp, err := c.client.Do(req)
	if err != nil {
		n.markDown(err)
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		n.markDown(err)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		err := fmt.Errorf("%s: status %d", n.url, resp.StatusCode)
		n.markDown(err)
		return nil, err
	}
	n.markUp(nil)
	sh.observeFanout(time.Since(start))
	if resp.StatusCode != http.StatusOK {
		return nil, &shardError{
			code:       resp.StatusCode,
			body:       string(data),
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return data, nil
}

func (c *Coordinator) handleClips(w http.ResponseWriter, r *http.Request) {
	ctx := clientContext(r)
	parts, partial, reject := scatter(c, ctx, func(sh *shard) ([]server.ClipSummary, error) {
		var clips []server.ClipSummary
		err := c.shardGet(ctx, sh, "/api/clips", &clips)
		return clips, err
	})
	if reject != nil {
		writeShardError(w, reject, "shard rejected listing")
		return
	}
	if len(parts) == 0 {
		writeError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard reachable"))
		return
	}
	if partial {
		c.metrics.add("partial", 1)
	}
	w.Header().Set(HeaderPartial, strconv.FormatBool(partial))
	writeJSON(w, mergeClipLists(parts))
}

// handleIngest routes an upload to the shard that owns the clip name.
// The coordinator needs the name before it reads the body — the ring
// cannot route on bytes it has not seen — so ?name= is mandatory here
// even for VDBF uploads that embed one.
//
// Writes hold the reshard barrier for read across the whole proxy: a
// cutover cannot land while an upload is in flight, so every write is
// either fully visible to the rebalancer's pre-cutover delta sync (it
// finished before the barrier) or routed by the new ring (it started
// after) — never lost in between.
func (c *Coordinator) handleIngest(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("name")
	if name == "" {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("clustered ingest needs a ?name= parameter (the ring routes on it)"))
		return
	}
	c.reshardMu.RLock()
	defer c.reshardMu.RUnlock()
	t := c.topo.Load()
	sh := t.shards[t.ring.Owner(name)]
	c.metrics.add("writes", 1)
	c.proxy(w, r, sh.primary(), "/api/clips?"+r.URL.RawQuery)
}

// handleClipWrite routes DELETE /api/clips/{name} to the owning
// shard's primary, under the same reshard barrier as ingest.
func (c *Coordinator) handleClipWrite(w http.ResponseWriter, r *http.Request) {
	c.reshardMu.RLock()
	defer c.reshardMu.RUnlock()
	t := c.topo.Load()
	sh := t.shards[t.ring.Owner(r.PathValue("name"))]
	c.metrics.add("writes", 1)
	c.proxy(w, r, sh.primary(), r.URL.RequestURI())
}

// handleClipRead routes a per-clip read to the owning shard with
// replica failover.
func (c *Coordinator) handleClipRead(w http.ResponseWriter, r *http.Request) {
	t := c.pinTopology()
	defer t.release()
	sh := t.shards[t.ring.Owner(r.PathValue("name"))]
	c.proxyRead(w, r, sh)
}

// handleSimilar routes query-by-example to the shard owning the
// example clip. The answer is scoped to that shard's partition of the
// index (the example's features live only there); docs/CLUSTER.md
// records the limitation.
func (c *Coordinator) handleSimilar(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("clip")
	if name == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("need clip parameter"))
		return
	}
	t := c.pinTopology()
	defer t.release()
	sh := t.shards[t.ring.Owner(name)]
	c.proxyRead(w, r, sh)
}

// proxyRead forwards a GET to a shard with failover, relaying the
// backend's status and body verbatim.
func (c *Coordinator) proxyRead(w http.ResponseWriter, r *http.Request, sh *shard) {
	var raw json.RawMessage
	err := c.shardGet(clientContext(r), sh, r.URL.RequestURI(), &raw)
	if err != nil {
		var se *shardError
		if asShardError(err, &se) {
			if se.retryAfter != "" {
				w.Header().Set("Retry-After", se.retryAfter)
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(se.code)
			_, _ = io.WriteString(w, se.body)
			return
		}
		writeError(w, http.StatusBadGateway, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// proxy streams one request to one node and relays the answer. Writes
// go through here: they are not retried (a resend could double-apply)
// and not bounded by the fan-out timeout (an upload analysis runs as
// long as it runs).
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, n *node, pathq string) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.url+pathq, r.Body)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	if k := r.Header.Get(admission.ClientHeader); k != "" {
		req.Header.Set(admission.ClientHeader, k)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		n.markDown(err)
		writeError(w, http.StatusBadGateway, fmt.Errorf("shard write failed: %w", err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode < 500 {
		n.markUp(nil)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		c.metrics.add("backpressure", 1)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, c.status())
}

func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	shards := c.topo.Load().shards
	up := 0
	for _, sh := range shards {
		for _, n := range sh.nodes {
			if n.isUp() {
				up++
				break
			}
		}
	}
	writeJSON(w, map[string]any{
		"status":          "ok",
		"role":            "coordinator",
		"shards":          len(shards),
		"shardsReachable": up,
	})
}

// handleMetrics serves the coordinator's counters in Prometheus text
// format, plus per-node reachability gauges.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, m := range []struct{ name, help, key string }{
		{"videodb_coord_queries_total", "Scatter-gather queries served.", "queries"},
		{"videodb_coord_batches_total", "Scatter-gather batch requests served.", "batches"},
		{"videodb_coord_partial_total", "Answers assembled without every shard.", "partial"},
		{"videodb_coord_writes_total", "Writes routed to owning shards.", "writes"},
		{"videodb_coord_shard_requests_total", "Fan-out requests attempted against shard nodes.", "shard_requests"},
		{"videodb_coord_shard_failures_total", "Fan-outs that exhausted every node of a shard.", "shard_failures"},
		{"videodb_coord_fetches_total", "Primary shard fetches (the base traffic retries are budgeted against).", "fetches"},
		{"videodb_coord_retries_total", "Retry and failover attempts paid from the retry budget.", "retries"},
		{"videodb_coord_retries_suppressed_total", "Retry attempts refused because the budget was dry.", "retries_suppressed"},
		{"videodb_coord_hedges_total", "Hedged backup probes fired.", "hedges"},
		{"videodb_coord_hedge_wins_total", "Hedged probes that answered before the primary attempt.", "hedge_wins"},
		{"videodb_coord_hedges_suppressed_total", "Hedges refused because the budget was dry.", "hedges_suppressed"},
		{"videodb_coord_backpressure_total", "Shard answers classified as backpressure (429, propagated, never retried).", "backpressure"},
		{"videodb_coord_reshards_total", "Reshard operations completed successfully.", "reshards"},
		{"videodb_coord_reshards_failed_total", "Reshard operations that failed and rolled back to the old ring.", "reshards_failed"},
		{"videodb_coord_reshard_moved_clips_total", "Clips migrated between shards by reshard operations.", "reshard_moved"},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			m.name, m.help, m.name, m.name, c.metrics.get(m.key))
	}
	shards := c.topo.Load().shards
	fmt.Fprintln(w, "# HELP videodb_coord_node_up Whether a shard node answered its last probe or request.")
	fmt.Fprintln(w, "# TYPE videodb_coord_node_up gauge")
	for _, sh := range shards {
		for _, n := range sh.nodes {
			up := 0
			if n.isUp() {
				up = 1
			}
			role := "primary"
			if n.replica {
				role = "replica"
			}
			fmt.Fprintf(w, "videodb_coord_node_up{shard=\"%d\",role=%q,url=%q} %d\n", sh.id, role, n.url, up)
		}
	}
	fmt.Fprintln(w, "# HELP videodb_coord_shard_reads_total Shard reads by the role of the node chosen to answer first (read balance).")
	fmt.Fprintln(w, "# TYPE videodb_coord_shard_reads_total counter")
	for _, sh := range shards {
		fmt.Fprintf(w, "videodb_coord_shard_reads_total{shard=\"%d\",role=\"primary\"} %d\n", sh.id, sh.primaryReads.Load())
		fmt.Fprintf(w, "videodb_coord_shard_reads_total{shard=\"%d\",role=\"replica\"} %d\n", sh.id, sh.replicaReads.Load())
	}
}

// coordMetrics is a mutex-guarded counter map: the coordinator has a
// handful of counters and no latency-critical path through them.
type coordMetrics struct {
	mu       sync.Mutex
	counters map[string]int64
}

func newCoordMetrics() *coordMetrics {
	return &coordMetrics{counters: make(map[string]int64)}
}

func (m *coordMetrics) add(key string, n int64) {
	m.mu.Lock()
	m.counters[key] += n
	m.mu.Unlock()
}

func (m *coordMetrics) get(key string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[key]
}

// Keys returns the sorted counter names (used by tests).
func (m *coordMetrics) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.counters))
	for k := range m.counters {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
