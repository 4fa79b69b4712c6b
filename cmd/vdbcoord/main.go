// Command vdbcoord fronts a sharded video-database cluster with the
// single-node HTTP API: queries and listings scatter to every shard
// and gather into the single-node result order, writes route to the
// shard that owns the clip on a consistent-hash ring, and reads fail
// over to replicas when a primary is down.
//
// Usage:
//
//	vdbcoord -addr :9090 \
//	    -shard http://s1:8080,http://s1r:8081 \
//	    -shard http://s2:8080 \
//	    -shard http://s3:8080
//
// Each -shard flag names one partition: the primary's base URL,
// optionally followed by comma-separated read-replica URLs. Shard
// order is identity — it must be the same on every coordinator, and
// reordering it reshards the corpus.
//
// Endpoints are the single-node set (GET/POST /api/clips, GET
// /api/query, POST /api/query/batch, GET /api/similar, DELETE
// /api/clips/{name}) plus:
//
//	GET  /api/cluster/status   shard membership, health, fan-out p99, replica lag
//	POST /api/cluster/reshard  online membership change: {"add":[{"primary":...}]} or {"remove":n}
//	GET  /api/health           coordinator liveness
//	GET  /api/metrics          coordinator counters (Prometheus text)
//
// Scatter answers carry "partial": true (and the X-Videodb-Partial
// header) when a shard contributed nothing; see docs/CLUSTER.md for
// the full failure matrix.
//
// Reads are hardened against slow and overloaded shards: -hedge fires
// a backup probe at a replica when a primary is slower than its
// p99-derived hedge delay (-hedge-delay is the floor), -retry-budget
// caps retry+hedge volume at a fraction of primary traffic so retry
// storms cannot amplify an outage, and a shard answering 429 is
// treated as backpressure — propagated with its Retry-After, never
// retried. See docs/ROBUSTNESS.md.
//
// -staleness-bound B (bytes, >= 0) spreads scatter reads across
// replicas that are at most B WAL bytes behind their primary; 0 admits
// only fully caught-up replicas and a negative bound (the default)
// reads from primaries only. POST /api/cluster/reshard grows or
// shrinks the cluster online — clips stream to their new owners, the
// ring cuts over atomically under a write barrier, and a brief
// dual-read window (both owners answering, the merge collapsing the
// identical copies) closes when the old copies are deleted. See
// "Growing the cluster" in docs/CLUSTER.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"videodb/internal/cluster"
)

func main() {
	var shardFlags []string
	flag.Func("shard", "one shard: primary URL, optionally followed by comma-separated replica URLs (repeatable)", func(v string) error {
		if strings.TrimSpace(v) == "" {
			return fmt.Errorf("empty -shard value")
		}
		shardFlags = append(shardFlags, v)
		return nil
	})
	var (
		addr    = flag.String("addr", ":9090", "listen address")
		vnodes  = flag.Int("vnodes", cluster.DefaultVnodes, "virtual nodes per shard on the hash ring")
		timeout = flag.Duration("timeout", 10*time.Second, "per fan-out attempt timeout")
		retries = flag.Int("retries", 1, "read retries per node before failing over")
		budget  = flag.Float64("retry-budget", 0.2, "retry+hedge volume cap as a fraction of primary fan-out traffic (negative = uncapped)")
		hedge   = flag.Bool("hedge", true, "fire a hedged backup probe at a replica when the primary is slower than the hedge delay")
		hedgeD  = flag.Duration("hedge-delay", 50*time.Millisecond, "hedge delay floor; a shard's observed p99 fan-out latency is used once known")
		probe   = flag.Duration("probe", 2*time.Second, "health probe interval")
		stale   = flag.Int64("staleness-bound", -1, "serve reads from replicas no more than this many WAL bytes behind their primary (0 = only fully caught-up replicas; negative = primaries only)")
		drain   = flag.Duration("drain", 10*time.Second, "shutdown grace period for in-flight requests")
	)
	flag.Parse()

	if len(shardFlags) == 0 {
		log.Fatal("vdbcoord: at least one -shard is required")
	}
	shards := make([]cluster.ShardConfig, len(shardFlags))
	for i, v := range shardFlags {
		urls := strings.Split(v, ",")
		for j, u := range urls {
			urls[j] = strings.TrimRight(strings.TrimSpace(u), "/")
			if urls[j] == "" {
				log.Fatalf("vdbcoord: -shard %d has an empty URL", i)
			}
		}
		shards[i] = cluster.ShardConfig{Primary: urls[0], Replicas: urls[1:]}
	}

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
	coord, err := cluster.New(cluster.Config{
		Shards:        shards,
		Vnodes:        *vnodes,
		Timeout:       *timeout,
		Retries:       *retries,
		RetryBudget:   *budget,
		Hedge:         *hedge,
		HedgeDelay:    *hedgeD,
		ProbeInterval: *probe,
		ReplicaReads:  *stale >= 0,
		StalenessBound: func() int64 {
			if *stale < 0 {
				return 0
			}
			return *stale
		}(),
		Logger: logger,
	})
	if err != nil {
		log.Fatalf("vdbcoord: %v", err)
	}
	defer coord.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
	}

	fmt.Printf("coordinating %d shards on %s\n", len(shards), *addr)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		log.Fatalf("vdbcoord: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down", "grace", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("vdbcoord: %v", err)
	}
}
