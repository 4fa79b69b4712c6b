package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/admission"
	"videodb/internal/obs"
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
	metrics        *instruments

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

// discardLogger is the default log of coordinators and replicas:
// disabled at every level, so nothing is formatted or written.
var discardLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

// newTransport is the coordinator's and the replica's transport. The
// default keeps 2 idle connections per host, so under more concurrent
// fan-outs than that every extra request dialed a new connection; 64
// per node is more than the fan-outs one coordinator runs at once.
func newTransport() *http.Transport {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost, t.MaxIdleConns = 64, 256
	return t
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
		metrics:        newInstruments(),
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
		c.client = &http.Client{Transport: newTransport()}
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
		c.log = discardLogger
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

// Close stops the health prober and closes the idle shard connections,
// which a shard's graceful shutdown may otherwise wait seconds for.
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
	c.client.CloseIdleConnections()
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

// relay passes the shard's refusal to the client untouched: status,
// body, and any Retry-After hint (a shed shard tells the client when to
// come back; the coordinator must not swallow that).
func (e *shardError) relay(w http.ResponseWriter) {
	if e.retryAfter != "" {
		w.Header().Set("Retry-After", e.retryAfter)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(e.code)
	_, _ = io.WriteString(w, e.body)
}

// backpressure reports whether the error is a shard shedding load.
func (e *shardError) backpressure() bool { return e.code == http.StatusTooManyRequests }

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
// request), and a 429 returns immediately as backpressure. A POST body
// is a byte slice, so every attempt resends identical bytes (batch
// queries are idempotent, which is also what makes them safe to hedge).
func (c *Coordinator) shardFetch(ctx context.Context, sh *shard, method, pathq string, body []byte) ([]byte, error) {
	c.budget.deposit()
	c.metrics.fetches.Add(1)
	order := c.readOrder(sh)
	do := func(n *node) ([]byte, error) { return c.nodeDo(ctx, n, sh, method, pathq, body) }

	classify := func(err error) (*shardError, bool) {
		var se *shardError
		if errors.As(err, &se) {
			if se.backpressure() {
				c.metrics.backpressure.Add(1)
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
			body, err := do(n)
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
			return nil, ctx.Err()
		case <-hedgeC:
			hedgeC = nil
			if !c.budget.take() {
				c.metrics.hedgesSuppressed.Add(1)
				continue
			}
			c.metrics.hedges.Add(1)
			launch(order[1], true)
			inflight++
			hedged = true
		case r := <-resCh:
			inflight--
			if r.err == nil {
				if r.hedged {
					c.metrics.hedgeWins.Add(1)
				}
				return r.body, nil
			}
			if se, ok := classify(r.err); ok {
				return nil, se
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
				c.metrics.retriesSuppressed.Add(1)
				c.metrics.shardFailures.Add(1)
				return nil, fmt.Errorf("shard %d: retry budget exhausted: %w", sh.id, lastErr)
			}
			c.metrics.retries.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(time.Duration(25<<min(backoff, 4)) * time.Millisecond):
			}
			backoff++
			body, err := do(n)
			if err == nil {
				return body, nil
			}
			if se, ok := classify(err); ok {
				return nil, se
			}
			lastErr = err
		}
	}
	c.metrics.shardFailures.Add(1)
	return nil, fmt.Errorf("shard %d unreachable: %w", sh.id, lastErr)
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

// nodeDo performs one attempt of a shard fetch against one node.
func (c *Coordinator) nodeDo(ctx context.Context, n *node, sh *shard, method, pathq string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, n.url+pathq, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	forwardClient(ctx, req)
	start := time.Now()
	c.metrics.shardRequests.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		n.markDown(err)
		return nil, err
	}
	defer resp.Body.Close()
	// One read buffer, sized from Content-Length up to 64 MiB: a header
	// alone cannot make the coordinator allocate more up front.
	buf := bytes.NewBuffer(make([]byte, 0, bytes.MinRead+min(max(resp.ContentLength, 0), 64<<20)))
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		n.markDown(err)
		return nil, err
	}
	if resp.StatusCode >= 500 {
		err := fmt.Errorf("%s: status %d", n.url, resp.StatusCode)
		n.markDown(err)
		return nil, err
	}
	n.markUp(nil)
	sh.fanout.RecordDuration(time.Since(start))
	if resp.StatusCode != http.StatusOK {
		return nil, &shardError{
			code:       resp.StatusCode,
			body:       buf.String(),
			retryAfter: resp.Header.Get("Retry-After"),
		}
	}
	return buf.Bytes(), nil
}

// scatter sends one request to every shard of the current topology
// concurrently and gathers the answers, each read by decode. A shard
// whose fetch fails, or whose answer decode refuses, contributes nothing
// and flips partial, which scatter counts and announces in the
// X-Videodb-Partial header. ok is false when scatter has already
// answered: a 4xx from any shard aborts the gather and is relayed as is
// (the same request would 4xx everywhere), and with no shard reachable
// the answer is 503. The topology is pinned for the whole gather, so a
// reshard landing mid-gather can neither tear the shard list nor start
// deleting moved clips from the sources this gather is still reading.
func scatter[T any](c *Coordinator, w http.ResponseWriter, r *http.Request, method, pathq string, body []byte, decode func([]byte) (T, error)) (parts []T, partial, ok bool) {
	ctx := clientContext(r)
	t := c.pinTopology()
	defer t.release()
	results := make([]T, len(t.shards))
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for i, sh := range t.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			answer, err := c.shardFetch(ctx, sh, method, pathq, body)
			if err == nil {
				results[i], err = decode(answer)
			}
			errs[i] = err
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		var se *shardError
		switch {
		case err == nil:
			parts = append(parts, results[i])
		case errors.As(err, &se):
			se.relay(w)
			return nil, false, false
		default:
			c.log.Warn("shard dropped from gather", "shard", i, "err", err)
			partial = true
		}
	}
	if len(parts) == 0 {
		server.WriteError(w, http.StatusServiceUnavailable, fmt.Errorf("no shard reachable"))
		return nil, false, false
	}
	if partial {
		c.metrics.partial.Add(1)
	}
	w.Header().Set(HeaderPartial, strconv.FormatBool(partial))
	return parts, partial, true
}

func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	// The shards apply their own default tolerances to the forwarded
	// query string; the defaults here only complete the validation.
	q, _, err := server.ParseQuery(r, varindex.DefaultOptions())
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, err)
		return
	}
	parts, partial, ok := scatter(c, w, r, http.MethodGet, "/api/query?"+r.URL.RawQuery, nil, server.ScanMatches)
	if !ok {
		return
	}
	c.metrics.queries.Add(1)
	merged := [][]server.RawMatch{mergeMatches(q, parts)}
	server.WriteJSONBody(w, relayAnswer(`{"matches":`, merged, "", partial))
}

func (c *Coordinator) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	// The merge needs each query's point in the similarity plane; the
	// shards re-derive the same points from the forwarded body.
	b, code, err := server.ReadBatch(w, r, varindex.DefaultOptions())
	if err != nil {
		server.WriteError(w, code, err)
		return
	}
	parts, partial, ok := scatter(c, w, r, http.MethodPost, "/api/query/batch", b.Body, func(answer []byte) ([][]server.RawMatch, error) {
		lists, err := server.ScanBatch(answer)
		if err == nil && len(lists) != len(b.Queries) {
			err = fmt.Errorf("batch answer has %d result lists for %d queries", len(lists), len(b.Queries))
		}
		return lists, err
	})
	if !ok {
		return
	}
	c.metrics.batches.Add(1)
	merged := make([][]server.RawMatch, len(b.Queries))
	per := make([][]server.RawMatch, len(parts))
	for i, point := range b.Queries {
		for j, p := range parts {
			per[j] = p[i]
		}
		merged[i] = mergeMatches(point, per)
	}
	server.WriteJSONBody(w, relayAnswer(`{"results":[`, merged, "]", partial))
}

func (c *Coordinator) handleClips(w http.ResponseWriter, r *http.Request) {
	parts, _, ok := scatter(c, w, r, http.MethodGet, "/api/clips", nil, func(answer []byte) ([]server.ClipSummary, error) {
		var listing []server.ClipSummary
		err := json.Unmarshal(answer, &listing)
		return listing, err
	})
	if ok {
		server.WriteJSON(w, mergeListings(parts))
	}
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
		server.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("clustered ingest needs a ?name= parameter (the ring routes on it)"))
		return
	}
	c.reshardMu.RLock()
	defer c.reshardMu.RUnlock()
	t := c.topo.Load()
	sh := t.shards[t.ring.Owner(name)]
	c.metrics.writes.Add(1)
	c.proxy(w, r, sh.primary(), "/api/clips?"+r.URL.RawQuery)
}

// handleClipWrite routes DELETE /api/clips/{name} to the owning
// shard's primary, under the same reshard barrier as ingest.
func (c *Coordinator) handleClipWrite(w http.ResponseWriter, r *http.Request) {
	c.reshardMu.RLock()
	defer c.reshardMu.RUnlock()
	t := c.topo.Load()
	sh := t.shards[t.ring.Owner(r.PathValue("name"))]
	c.metrics.writes.Add(1)
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
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("need clip parameter"))
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
	answer, err := c.shardFetch(clientContext(r), sh, http.MethodGet, r.URL.RequestURI(), nil)
	if err == nil {
		err = json.Unmarshal(answer, &raw)
	}
	if err != nil {
		var se *shardError
		if errors.As(err, &se) {
			se.relay(w)
			return
		}
		server.WriteError(w, http.StatusBadGateway, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(raw)
}

// proxy streams one request to one node and relays the answer. Writes
// go through here: they are not retried (a resend could double-apply)
// and not bounded by the fan-out timeout (an upload analysis runs as
// long as it runs). A 2xx answer's journal position is noted on the
// node (node.noteWrite).
func (c *Coordinator) proxy(w http.ResponseWriter, r *http.Request, n *node, pathq string) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, n.url+pathq, r.Body)
	if err != nil {
		server.WriteError(w, http.StatusInternalServerError, err)
		return
	}
	req.Header.Set("Content-Type", r.Header.Get("Content-Type"))
	if k := r.Header.Get(admission.ClientHeader); k != "" {
		req.Header.Set(admission.ClientHeader, k)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		n.markDown(err)
		server.WriteError(w, http.StatusBadGateway, fmt.Errorf("shard write failed: %w", err))
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode < 500 {
		n.markUp(nil)
	}
	if resp.StatusCode/100 == 2 {
		n.noteWrite(resp.Header)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		c.metrics.backpressure.Add(1)
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
	server.WriteJSON(w, c.status())
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
	server.WriteJSON(w, HealthJSON{Role: "coordinator", Shards: len(shards), ShardsReachable: up, Status: "ok"})
}

// instruments are the coordinator's counters, registered once in New
// and bumped lock-free on the fan-out path.
type instruments struct {
	reg *obs.Registry

	queries, batches, partial, writes           *obs.Counter
	shardRequests, shardFailures, fetches       *obs.Counter
	retries, retriesSuppressed                  *obs.Counter
	hedges, hedgeWins, hedgesSuppressed         *obs.Counter
	backpressure                                *obs.Counter
	reshards, reshardsFailed, reshardMovedClips *obs.Counter
}

func newInstruments() *instruments {
	reg := &obs.Registry{}
	return &instruments{
		reg:               reg,
		queries:           reg.Counter("videodb_coord_queries_total", "Scatter-gather queries served."),
		batches:           reg.Counter("videodb_coord_batches_total", "Scatter-gather batch requests served."),
		partial:           reg.Counter("videodb_coord_partial_total", "Answers assembled without every shard."),
		writes:            reg.Counter("videodb_coord_writes_total", "Writes routed to owning shards."),
		shardRequests:     reg.Counter("videodb_coord_shard_requests_total", "Fan-out requests attempted against shard nodes."),
		shardFailures:     reg.Counter("videodb_coord_shard_failures_total", "Fan-outs that exhausted every node of a shard."),
		fetches:           reg.Counter("videodb_coord_fetches_total", "Primary shard fetches (the base traffic retries are budgeted against)."),
		retries:           reg.Counter("videodb_coord_retries_total", "Retry and failover attempts paid from the retry budget."),
		retriesSuppressed: reg.Counter("videodb_coord_retries_suppressed_total", "Retry attempts refused because the budget was dry."),
		hedges:            reg.Counter("videodb_coord_hedges_total", "Hedged backup probes fired."),
		hedgeWins:         reg.Counter("videodb_coord_hedge_wins_total", "Hedged probes that answered before the primary attempt."),
		hedgesSuppressed:  reg.Counter("videodb_coord_hedges_suppressed_total", "Hedges refused because the budget was dry."),
		backpressure:      reg.Counter("videodb_coord_backpressure_total", "Shard answers classified as backpressure (429, propagated, never retried)."),
		reshards:          reg.Counter("videodb_coord_reshards_total", "Reshard operations completed successfully."),
		reshardsFailed:    reg.Counter("videodb_coord_reshards_failed_total", "Reshard operations that failed and rolled back to the old ring."),
		reshardMovedClips: reg.Counter("videodb_coord_reshard_moved_clips_total", "Clips migrated between shards by reshard operations."),
	}
}

// handleMetrics serves the coordinator's counters in Prometheus text
// format, plus per-node reachability gauges and the read balance.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", obs.ContentType)
	p := obs.NewWriter(w)
	c.metrics.reg.Write(p)
	shards := c.topo.Load().shards
	p.Family("videodb_coord_node_up", "gauge", "Whether a shard node answered its last probe or request.")
	for _, sh := range shards {
		for _, n := range sh.nodes {
			up := 0.0
			if n.isUp() {
				up = 1
			}
			p.Sample("videodb_coord_node_up", up, "shard", strconv.Itoa(sh.id), "role", n.role(), "url", n.url)
		}
	}
	p.Family("videodb_coord_shard_reads_total", "counter", "Shard reads by the role of the node chosen to answer first (read balance).")
	for _, sh := range shards {
		id := strconv.Itoa(sh.id)
		p.Sample("videodb_coord_shard_reads_total", float64(sh.primaryReads.Load()), "shard", id, "role", "primary")
		p.Sample("videodb_coord_shard_reads_total", float64(sh.replicaReads.Load()), "shard", id, "role", "replica")
	}
}
