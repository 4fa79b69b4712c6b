package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"videodb/internal/chaos"
	"videodb/internal/server"
)

// TestPartialUnderInjectedLatency: a shard that is alive but
// chaos-slowed past the per-node timeout must degrade the answer to
// partial:true, not hang the query or fail it outright. This is the
// latency counterpart of the shard-death partial tests.
func TestPartialUnderInjectedLatency(t *testing.T) {
	clips := makeClips(t, 4)
	ring := NewRing(2, 0)
	cfg := Config{
		ProbeInterval: 200 * time.Millisecond,
		Timeout:       150 * time.Millisecond,
		Retries:       -1, // no per-node retries: the test times out one attempt per node
	}
	for i := 0; i < 2; i++ {
		db := newDB(t)
		for _, clip := range clips {
			if ring.Owner(clip.Name) == i {
				if _, err := db.Ingest(clip); err != nil {
					t.Fatal(err)
				}
			}
		}
		h := server.New(db).Handler()
		if i == 0 {
			// Shard 0 answers queries far slower than the fan-out timeout;
			// health stays fast so the prober keeps believing in it.
			inj := chaos.New([]chaos.Fault{
				{Kind: chaos.KindLatency, PathPrefix: "/api/query", Prob: 1, Latency: 2 * time.Second},
			}, 1)
			h = inj.Middleware(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		cfg.Shards = append(cfg.Shards, ShardConfig{Primary: ts.URL})
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	var resp server.QueryResponseJSON
	start := time.Now()
	code, hdr := getJSON(t, front.URL+"/api/query?varba=25&varoa=4", &resp)
	if code != http.StatusOK {
		t.Fatalf("query against a slow shard answered %d, want 200 partial", code)
	}
	if !resp.Partial {
		t.Error("answer not marked partial although shard 0 never answered in time")
	}
	if hdr.Get(HeaderPartial) != "true" {
		t.Errorf("%s = %q, want true", HeaderPartial, hdr.Get(HeaderPartial))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("degraded answer took %v; the slow shard stalled the gather", elapsed)
	}
}

// TestHedgeWinsBackSlowShard: with a healthy replica and hedging on,
// the same chaos-slowed primary must NOT cost the answer its shard —
// the hedged probe reaches the replica and wins, partial stays false.
func TestHedgeWinsBackSlowShard(t *testing.T) {
	clips := makeClips(t, 4)
	db := newDB(t)
	for _, clip := range clips {
		if _, err := db.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	// Primary and replica serve the same database; only the primary is
	// chaos-slowed on the query path.
	inj := chaos.New([]chaos.Fault{
		{Kind: chaos.KindLatency, PathPrefix: "/api/query", Prob: 1, Latency: time.Second},
	}, 1)
	primary := httptest.NewServer(inj.Middleware(server.New(db).Handler()))
	t.Cleanup(primary.Close)
	replica := httptest.NewServer(server.New(db).Handler())
	t.Cleanup(replica.Close)

	coord, err := New(Config{
		Shards:        []ShardConfig{{Primary: primary.URL, Replicas: []string{replica.URL}}},
		ProbeInterval: 200 * time.Millisecond,
		Timeout:       5 * time.Second,
		Hedge:         true,
		HedgeDelay:    20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	var resp server.QueryResponseJSON
	start := time.Now()
	code, _ := getJSON(t, front.URL+"/api/query?varba=25&varoa=4", &resp)
	if code != http.StatusOK {
		t.Fatalf("hedged query answered %d, want 200", code)
	}
	if resp.Partial {
		t.Error("hedging lost the shard: partial=true with a healthy replica")
	}
	if elapsed := time.Since(start); elapsed > 800*time.Millisecond {
		t.Errorf("hedged answer took %v; it waited out the slow primary instead of hedging", elapsed)
	}
	if wins := coord.metrics.hedgeWins.Load(); wins < 1 {
		t.Errorf("hedge_wins = %d, want >= 1", wins)
	}
}

// TestRetryBudgetCapsRetryStorm: a dead shard under sustained load must
// not multiply attempts without bound — retries stay within
// ratio × fetches + burst and the budget visibly suppresses demand.
func TestRetryBudgetCapsRetryStorm(t *testing.T) {
	healthy := httptest.NewServer(server.New(newDB(t)).Handler())
	t.Cleanup(healthy.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from here on

	const ratio = 0.2
	coord, err := New(Config{
		Shards:        []ShardConfig{{Primary: healthy.URL}, {Primary: deadURL}},
		ProbeInterval: time.Hour, // only the startup probe; the data path drives health
		Timeout:       time.Second,
		RetryBudget:   ratio,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	const queries = 80
	for i := 0; i < queries; i++ {
		var resp server.QueryResponseJSON
		code, _ := getJSON(t, front.URL+"/api/query?varba=25&varoa=4", &resp)
		if code != http.StatusOK {
			t.Fatalf("query %d answered %d with one healthy shard, want 200 partial", i, code)
		}
		if !resp.Partial {
			t.Fatalf("query %d not partial although shard 1 is dead", i)
		}
	}

	fetches := coord.metrics.fetches.Load()
	retries := coord.metrics.retries.Load()
	suppressed := coord.metrics.retriesSuppressed.Load()
	if suppressed == 0 {
		t.Errorf("budget never suppressed a retry over %d queries against a dead shard", queries)
	}
	// Every extra attempt was paid for: ratio per primary fetch plus the
	// initial burst is the hard ceiling.
	if limit := int64(ratio*float64(fetches)) + budgetBurst; retries > limit {
		t.Errorf("retries = %d over %d fetches, budget allows at most %d", retries, fetches, limit)
	}
}

// TestBackpressurePropagates: a shard answering 429 is shedding load,
// not failing — the coordinator must pass the 429 and its Retry-After
// through untouched, burn no retries on it, and not mark the shard
// down.
func TestBackpressurePropagates(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/api/health" {
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintln(w, `{"status":"ok"}`)
			return
		}
		w.Header().Set("Retry-After", "7")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		fmt.Fprintln(w, `{"error":"request shed: rate_limit","reason":"rate_limit"}`)
	}))
	t.Cleanup(shedding.Close)

	coord, err := New(Config{
		Shards:        []ShardConfig{{Primary: shedding.URL}},
		ProbeInterval: time.Hour,
		Timeout:       time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	code, hdr := getJSON(t, front.URL+"/api/query?varba=25&varoa=4", nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("shed shard propagated as %d, want 429", code)
	}
	if ra := hdr.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want the shard's own 7", ra)
	}
	if got := coord.metrics.backpressure.Load(); got < 1 {
		t.Errorf("backpressure counter = %d, want >= 1", got)
	}
	if got := coord.metrics.retries.Load(); got != 0 {
		t.Errorf("retries = %d on a 429, want 0 (backpressure is never retried)", got)
	}
	if got := coord.metrics.shardFailures.Load(); got != 0 {
		t.Errorf("shard_failures = %d, want 0 (shedding is not failing)", got)
	}
	if !coord.topo.Load().shards[0].primary().isUp() {
		t.Error("429 marked the shard down; shedding nodes are alive")
	}
}
