package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/obs"
	"videodb/internal/server"
)

// node is one backend process — a shard primary or one of its read
// replicas — with its observed health. Health changes come from two
// directions: the background prober (every ProbeInterval) and the data
// path itself (a failed fan-out marks the node down immediately, a
// successful one marks it up), so the coordinator reacts to a dead
// shard at request speed, not probe speed.
type node struct {
	url     string
	replica bool

	mu      sync.Mutex
	up      bool
	fails   int
	lastErr string
	health  server.HealthJSON // last /api/health document
	// probeStart is when the probe whose result the node holds started.
	probeStart time.Time
}

// markUp records a successful exchange with the node; doc, when not
// nil, replaces its health document.
func (n *node) markUp(doc *server.HealthJSON) {
	n.mu.Lock()
	n.set(doc, nil)
	n.mu.Unlock()
}

func (n *node) markDown(err error) {
	n.mu.Lock()
	n.set(nil, err)
	n.mu.Unlock()
}

// probed records the result of a health probe that started at start,
// unless the node holds the result of one that started later. Probes
// overlap — background rounds, a reshard's pre-flight, explicit rounds
// — and an older answer must never overwrite a newer one: it could
// hand a replica reads across a primary restart the coordinator has
// already seen.
func (n *node) probed(start time.Time, doc *server.HealthJSON, err error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if start.Before(n.probeStart) {
		return
	}
	n.probeStart = start
	n.set(doc, err)
}

// set records one observation: up (keeping the last health document
// when doc is nil) if err is nil, down otherwise. n.mu must be held.
func (n *node) set(doc *server.HealthJSON, err error) {
	n.up = err == nil
	if err != nil {
		n.fails++
		n.lastErr = err.Error()
		return
	}
	n.fails, n.lastErr = 0, ""
	if doc != nil {
		n.health = *doc
	}
}

// noteWrite folds the journal position on a write's 2xx answer
// (server.HeaderWalGen and HeaderWalSize) into the node's health
// document, as an observation made now: a probe that started earlier
// no longer overwrites it. The position replaces the document's unless
// that already holds the same generation at a size at least as large,
// so replicaLag counts a write acknowledged through this coordinator
// until the replica has applied it, even before a probe sees the
// write. An answer without the pair changes nothing.
func (n *node) noteWrite(h http.Header) {
	gen := h.Get(server.HeaderWalGen)
	size, err := strconv.ParseInt(h.Get(server.HeaderWalSize), 10, 64)
	if gen == "" || err != nil {
		return
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if j := n.health.JournalHealth; j != nil && j.WalGen == gen && j.WalSize >= size {
		return
	}
	n.health.JournalHealth = &server.JournalHealth{WalGen: gen, WalSize: size}
	n.probeStart = time.Now()
}

func (n *node) isUp() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

// role names the node's part in its shard.
func (n *node) role() string {
	if n.replica {
		return "replica"
	}
	return "primary"
}

// snapshot returns the node's liveness fields under one lock hold.
func (n *node) snapshot() (up bool, fails int, lastErr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up, n.fails, n.lastErr
}

// healthDoc returns the node's last health document. Its embedded
// parts are shared, never written: each probe decodes a new document.
func (n *node) healthDoc() server.HealthJSON {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.health
}

// shard is one partition of the corpus: a primary plus any read
// replicas, with a fan-out latency histogram for the status endpoint
// and read-balance counters for bounded-staleness replica reads.
type shard struct {
	id    int
	nodes []*node // nodes[0] is the primary

	fanout *obs.Histogram

	// rr rotates the first read slot across the primary and the
	// staleness-eligible replicas; primaryReads / replicaReads record
	// which role actually got that slot (monotone counters surfaced in
	// /api/cluster/status as the read balance).
	rr           atomic.Uint64
	primaryReads atomic.Int64
	replicaReads atomic.Int64
}

// newShard builds one shard's node set from its config: the primary at
// slot 0, replicas behind it, all optimistically up until probed.
func newShard(id int, sc ShardConfig) *shard {
	sh := &shard{id: id, fanout: obs.NewHistogram()}
	sh.nodes = append(sh.nodes, &node{url: sc.Primary, up: true})
	for _, r := range sc.Replicas {
		sh.nodes = append(sh.nodes, &node{url: r, replica: true, up: true})
	}
	return sh
}

func (sh *shard) primary() *node { return sh.nodes[0] }

// replicaLag returns replica n's byte lag behind the shard's primary,
// computed from the most recent health observations: the primary's
// journal position minus the replica's applied cut. ok is false when
// the lag is unknowable — the primary reports no journal generation,
// the replica no stream generation, or the two differ (the primary
// restarted and the replica has not re-bootstrapped yet; a flush
// changes neither). A negative difference clamps to zero: the two docs
// are sampled at different instants, so a replica can appear
// momentarily ahead. The primary's document includes the
// positions of writes acknowledged through this coordinator
// (node.noteWrite).
func (sh *shard) replicaLag(n *node) (int64, bool) {
	p, r := sh.primary().healthDoc(), n.healthDoc()
	if p.JournalHealth == nil || r.ReplicationStatus == nil || p.WalGen == "" || r.Gen != p.WalGen {
		return -1, false
	}
	return max(p.WalSize-r.Cut, 0), true
}

// eligibleForRead reports whether replica n may serve a rotated
// bounded-staleness read: the node is up and its lag is known and at
// most bound (the boundary is inclusive — a replica exactly at the
// bound still qualifies). A generation mismatch makes the lag unknown,
// so a replica mid-resync always falls back to the primary.
func (sh *shard) eligibleForRead(n *node, bound int64) bool {
	if !n.replica || !n.isUp() {
		return false
	}
	lag, ok := sh.replicaLag(n)
	return ok && lag <= bound
}

// readOrder returns the nodes to try for a read: the primary first,
// then replicas — except a down primary sorts last, which is the
// read-side promotion: while the primary is out, replicas answer.
func (sh *shard) readOrder() []*node {
	out := make([]*node, 0, len(sh.nodes))
	var down []*node
	for _, n := range sh.nodes {
		if n.isUp() {
			out = append(out, n)
		} else {
			down = append(down, n)
		}
	}
	// Down nodes stay in the order as a last resort: health state can
	// be stale, and trying a "down" node is cheaper than refusing.
	return append(out, down...)
}

// readOrder is the coordinator's node preference for one shard read:
// the shard's failover order, with bounded-staleness rotation applied
// when replica reads are enabled. While the primary is healthy, the
// first slot rotates round-robin across the primary and every replica
// whose lag is within the staleness bound — spreading read load instead
// of pinning it to the primary — and the rest of the failover order
// stays behind the rotated choice, so hedging and failover work
// unchanged. With the primary down, the plain failover order applies
// (read-side promotion already prefers replicas). Either way the
// shard's read-balance counters record which role got the first slot.
func (c *Coordinator) readOrder(sh *shard) []*node {
	order := sh.readOrder()
	if c.replicaReads && len(order) > 1 && sh.primary().isUp() {
		var eligible []*node
		for _, n := range sh.nodes {
			if sh.eligibleForRead(n, c.stalenessBound) {
				eligible = append(eligible, n)
			}
		}
		if len(eligible) > 0 {
			pick := int(sh.rr.Add(1) % uint64(len(eligible)+1))
			if pick > 0 {
				chosen := eligible[pick-1]
				rotated := make([]*node, 0, len(order))
				rotated = append(rotated, chosen)
				for _, n := range order {
					if n != chosen {
						rotated = append(rotated, n)
					}
				}
				order = rotated
			}
		}
	}
	if len(order) > 0 {
		if order[0].replica {
			sh.replicaReads.Add(1)
		} else {
			sh.primaryReads.Add(1)
		}
	}
	return order
}

// hedgeMinSamples is how many fan-out observations a shard needs before
// its p99 is trusted to derive the hedge delay; below it the configured
// floor applies.
const hedgeMinSamples = 20

// hedgeDelay is how long to wait on the primary before firing a backup
// probe at a replica: the shard's observed p99 fan-out latency (so only
// the slowest ~1% of requests hedge, keeping the extra load marginal),
// clamped between the configured floor and half the fan-out timeout (a
// hedge fired later than that cannot finish in time anyway).
func (sh *shard) hedgeDelay(floor, timeout time.Duration) time.Duration {
	d := floor
	if sh.fanout.Count() >= hedgeMinSamples {
		if pd := time.Duration(sh.fanout.Quantile(0.99) * float64(time.Second)); pd > d {
			d = pd
		}
	}
	if timeout > 0 && d > timeout/2 {
		d = timeout / 2
	}
	if d <= 0 {
		d = time.Millisecond
	}
	return d
}

// probe polls one node's /api/health and records the answer.
func (c *Coordinator) probe(ctx context.Context, n *node) {
	start := time.Now()
	doc, err := c.fetchHealth(ctx, n.url)
	n.probed(start, doc, err)
}

// fetchHealth fetches and decodes one node's /api/health document.
func (c *Coordinator) fetchHealth(ctx context.Context, url string) (*server.HealthJSON, error) {
	ctx, cancel := context.WithTimeout(ctx, c.probeTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/api/health", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("health probe: status %d: %v", resp.StatusCode, err)
	}
	var doc server.HealthJSON
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("health probe: %w", err)
	}
	return &doc, nil
}

func (c *Coordinator) probeTimeout() time.Duration {
	if c.timeout > 0 && c.timeout < 2*time.Second {
		return c.timeout
	}
	return 2 * time.Second
}

// probeLoop polls every node until Close.
func (c *Coordinator) probeLoop() {
	defer c.wg.Done()
	ctx, cancel := context.WithCancel(context.Background())
	go func() { <-c.stop; cancel() }()
	tick := time.NewTicker(c.probeInterval)
	defer tick.Stop()
	for {
		c.probeAll(ctx)
		select {
		case <-c.stop:
			return
		case <-tick.C:
		}
	}
}

// probeAll probes every node of the current topology once,
// concurrently. The shard list is re-read from the topology pointer on
// every round, so shards added by a reshard start being probed on the
// next cycle without coordination.
func (c *Coordinator) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, sh := range c.topo.Load().shards {
		for _, n := range sh.nodes {
			wg.Add(1)
			go func(n *node) {
				defer wg.Done()
				c.probe(ctx, n)
			}(n)
		}
	}
	wg.Wait()
}

// NodeStatus is one backend's health in the cluster status document.
type NodeStatus struct {
	URL       string `json:"url"`
	Role      string `json:"role"` // "primary" or "replica"
	Up        bool   `json:"up"`
	Fails     int    `json:"fails,omitempty"`
	LastError string `json:"lastError,omitempty"`
	Clips     int    `json:"clips,omitempty"`
	Epoch     uint64 `json:"epoch,omitempty"`
	// LagBytes is a replica's journal byte lag behind its primary
	// (primary walSize minus the replica's applied cut), -1 when it
	// cannot be computed (node down, generations diverged mid-resync).
	LagBytes int64 `json:"lagBytes,omitempty"`
}

// ShardStatus is one shard's slice of the cluster status document.
type ShardStatus struct {
	ID    int          `json:"id"`
	Nodes []NodeStatus `json:"nodes"`
	// FanoutP99Seconds is the 99th-percentile fan-out latency the
	// coordinator has observed against this shard.
	FanoutP99Seconds float64 `json:"fanoutP99Seconds"`
	FanoutCount      int64   `json:"fanoutCount"`
	// PrimaryReads / ReplicaReads are the read-balance counters: how
	// many shard reads were routed first to the primary vs a replica
	// (bounded-staleness rotation plus read-side promotion).
	PrimaryReads int64 `json:"primaryReads"`
	ReplicaReads int64 `json:"replicaReads"`
}

// HealthJSON is the coordinator's GET /api/health document. Its fields
// are declared in key order, the order the map it replaced encoded in.
type HealthJSON struct {
	Role   string `json:"role"`
	Shards int    `json:"shards"`
	// ShardsReachable counts the shards with at least one node up.
	ShardsReachable int    `json:"shardsReachable"`
	Status          string `json:"status"`
}

// StatusJSON is the GET /api/cluster/status document.
type StatusJSON struct {
	Shards         []ShardStatus `json:"shards"`
	Queries        int64         `json:"queries"`
	Batches        int64         `json:"batches"`
	PartialQueries int64         `json:"partialQueries"`
	// MaxLagBytes is the largest replica lag across the cluster, -1 if
	// any replica's lag is unknown.
	MaxLagBytes int64 `json:"maxLagBytes"`
	// Fetches counts primary shard fetches; Retries and Hedges are the
	// extra attempts paid from the retry budget, with their suppressed
	// counterparts recording budget refusals. HedgeWins is how often
	// the backup probe answered first; Backpressure counts shard 429s
	// propagated to clients.
	Fetches           int64 `json:"fetches"`
	Retries           int64 `json:"retries"`
	RetriesSuppressed int64 `json:"retriesSuppressed"`
	Hedges            int64 `json:"hedges"`
	HedgeWins         int64 `json:"hedgeWins"`
	HedgesSuppressed  int64 `json:"hedgesSuppressed"`
	Backpressure      int64 `json:"backpressure"`
	// ReplicaReadsEnabled / StalenessBoundBytes echo the coordinator's
	// bounded-staleness read configuration.
	ReplicaReadsEnabled bool  `json:"replicaReadsEnabled"`
	StalenessBoundBytes int64 `json:"stalenessBoundBytes"`
	// Reshard describes the running or most recent reshard operation;
	// absent until one has been requested.
	Reshard *ReshardStatus `json:"reshard,omitempty"`
}

// status assembles the cluster status document from the latest health
// observations.
func (c *Coordinator) status() StatusJSON {
	shards := c.topo.Load().shards
	out := StatusJSON{Shards: make([]ShardStatus, len(shards))}
	var maxLag int64
	for i, sh := range shards {
		ss := ShardStatus{ID: sh.id}
		ss.FanoutP99Seconds, ss.FanoutCount = sh.fanout.Quantile(0.99), sh.fanout.Count()
		ss.PrimaryReads = sh.primaryReads.Load()
		ss.ReplicaReads = sh.replicaReads.Load()
		for _, n := range sh.nodes {
			up, fails, lastErr := n.snapshot()
			h := n.healthDoc()
			ns := NodeStatus{URL: n.url, Role: n.role(), Up: up, Fails: fails, LastError: lastErr, Clips: h.Clips, Epoch: h.Epoch}
			if n.replica {
				ns.LagBytes = -1
				if lag, ok := sh.replicaLag(n); up && ok {
					ns.LagBytes = lag
				}
				switch {
				case ns.LagBytes < 0:
					maxLag = -1
				case maxLag >= 0 && ns.LagBytes > maxLag:
					maxLag = ns.LagBytes
				}
			}
			ss.Nodes = append(ss.Nodes, ns)
		}
		out.Shards[i] = ss
	}
	out.MaxLagBytes = maxLag
	out.ReplicaReadsEnabled = c.replicaReads
	out.StalenessBoundBytes = c.stalenessBound
	out.Reshard = c.reshard.statusDoc()
	out.Queries = c.metrics.queries.Load()
	out.Batches = c.metrics.batches.Load()
	out.PartialQueries = c.metrics.partial.Load()
	out.Fetches = c.metrics.fetches.Load()
	out.Retries = c.metrics.retries.Load()
	out.RetriesSuppressed = c.metrics.retriesSuppressed.Load()
	out.Hedges = c.metrics.hedges.Load()
	out.HedgeWins = c.metrics.hedgeWins.Load()
	out.HedgesSuppressed = c.metrics.hedgesSuppressed.Load()
	out.Backpressure = c.metrics.backpressure.Load()
	return out
}
