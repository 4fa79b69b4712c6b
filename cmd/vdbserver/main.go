// Command vdbserver serves a video database over HTTP.
//
// Usage:
//
//	vdbserver -data ./data -addr :8080 [-corpus ./corpus]
//
// Endpoints:
//
//	GET    /api/clips                        list ingested clips (JSON)
//	POST   /api/clips                        ingest a VDBF/Y4M upload live
//	GET    /api/clips/{name}                 one clip's shot table (JSON)
//	DELETE /api/clips/{name}                 remove a clip
//	GET    /api/clips/{name}/tree            the clip's scene tree (JSON)
//	GET    /api/query?varba=25&varoa=4       variance-based similarity query
//	GET    /api/query?impression=bg%3Dhigh+obj%3Dlow
//	GET    /api/similar?clip=NAME&shot=3&k=3 query by example shot
//	POST   /api/snapshot                     flush the memtable into a new segment
//	GET    /api/metrics                      Prometheus text-format metrics
//	GET    /api/frame?clip=NAME&frame=17     one frame as PNG (needs -corpus)
//	GET    /api/storyboard?clip=NAME&cols=4  per-shot storyboard PNG (needs -corpus)
//	POST   /api/query/batch                  many variance queries in one request
//	GET    /api/health                       liveness, sizes, epoch, WAL position
//	GET    /api/replication/snapshot         replica bootstrap download
//	GET    /api/replication/wal?from=&gen=   WAL shipping (tail the journal)
//	GET    /debug/pprof/                     runtime profiling (needs -pprof)
//
// The server runs on the segment store in -data DIR (default ./data,
// created when missing; see docs/STORAGE.md): flushed clips live in
// immutable mmap-ed segment files under DIR (opened without reading
// them into heap, so the database can exceed RAM), recent writes in a
// memtable guarded by the write-ahead journal DIR/wal.log under the
// -sync policy (always | interval | none). On startup the journal is
// replayed over the segments and any torn tail from a crash is
// truncated with a logged warning; POST /api/snapshot flushes the
// memtable into a new segment and rotates the journal; a background
// compactor (-compact-interval) merges small segments into larger
// generations.
//
// With -replica-of URL the process runs as a read replica: it
// bootstraps from the primary's replication snapshot, tails its
// journal, and answers 403 to every write. A replica keeps its state in
// memory and ignores -data. See docs/CLUSTER.md.
//
// The server recovers handler panics as 500 JSON, logs every request,
// enforces per-request and connection-level timeouts, and drains
// in-flight requests before exiting on SIGINT/SIGTERM.
//
// Overload protection: -rate-limit / -client-rate-limit add token
// buckets (sheds answer 429 + Retry-After), -max-inflight /
// -queue-depth / -queue-timeout bound concurrency with a deadline-aware
// wait queue (sheds answer 503 + Retry-After). Health, metrics and
// replication endpoints are never shed. Repeatable -chaos specs
// (kind:pathprefix:probability:param, seeded by -chaos-seed) inject
// latency, error or slow-body faults for chaos testing. See
// docs/ROBUSTNESS.md.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"videodb/internal/admission"
	"videodb/internal/chaos"
	"videodb/internal/cluster"
	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/store"
	"videodb/internal/wal"
)

func main() {
	var (
		corpus     = flag.String("corpus", "", "directory of VDBF clips; enables /api/frame and /api/storyboard")
		addr       = flag.String("addr", ":8080", "listen address")
		maxBody    = flag.Int64("maxbody", 256<<20, "POST /api/clips upload limit in bytes (0 = unlimited)")
		timeout    = flag.Duration("timeout", 30*time.Second, "per-request timeout for non-upload requests (0 = none)")
		rdTO       = flag.Duration("read-timeout", 5*time.Minute, "http.Server read timeout (covers uploads)")
		wrTO       = flag.Duration("write-timeout", 10*time.Minute, "http.Server write timeout (covers ingest analysis)")
		idleTO     = flag.Duration("idle-timeout", 2*time.Minute, "http.Server keep-alive idle timeout")
		drain      = flag.Duration("drain", 15*time.Second, "shutdown grace period for in-flight requests")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (CPU, heap, goroutine, trace)")
		jobs       = flag.Int("j", 0, "per-frame ingest analysis workers (0 = GOMAXPROCS, 1 = serial)")
		qCache     = flag.Int("query-cache", 4096, "query-result cache capacity in entries (0 disables)")
		syncMode   = flag.String("sync", "interval", "journal sync policy: always | interval | none")
		syncIvl    = flag.Duration("sync-interval", time.Second, "background fsync cadence for -sync interval")
		replicaOf  = flag.String("replica-of", "", "run as a read replica of this primary's base URL (in memory, ignores -data; writes answer 403)")
		replIvl    = flag.Duration("replica-poll", 250*time.Millisecond, "WAL poll period when caught up (-replica-of mode)")
		dataDir    = flag.String("data", "data", "segment-store directory (created when missing): immutable mmap-ed segments plus the write-ahead journal wal.log")
		compactIvl = flag.Duration("compact-interval", 30*time.Second, "background segment-compaction cadence (0 disables)")
		fanout     = flag.Int("fanout", segstore.DefaultFanout, "segments per generation before the compactor merges them (at least 2)")
		clipCache  = flag.Int("clip-cache", core.DefaultClipCache, "decoded-clip LRU capacity in clips for segment reads (0 = default)")

		rateLimit   = flag.Float64("rate-limit", 0, "global admission rate in requests/second (0 = unlimited)")
		rateBurst   = flag.Float64("rate-burst", 0, "global admission bucket depth (0 = 2x rate)")
		clientRate  = flag.Float64("client-rate-limit", 0, "per-client admission rate in requests/second, keyed by "+admission.ClientHeader+" or remote IP (0 = unlimited)")
		clientBurst = flag.Float64("client-rate-burst", 0, "per-client admission bucket depth (0 = 2x client rate)")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently admitted requests; excess queues then sheds 503 (0 = unlimited)")
		queueDepth  = flag.Int("queue-depth", 0, "max requests waiting for an inflight slot (0 = max-inflight)")
		queueWait   = flag.Duration("queue-timeout", 0, "longest a request waits for an inflight slot before shedding (0 = 1s)")
		chaosSeed   = flag.Uint64("chaos-seed", 1, "seed for the deterministic chaos fault stream")
	)
	var chaosSpecs []string
	flag.Func("chaos", "fault-injection spec kind:pathprefix:probability:param, e.g. latency:/api/query:0.5:200ms (repeatable; see docs/ROBUSTNESS.md)", func(v string) error {
		if _, err := chaos.ParseFault(v); err != nil {
			return err
		}
		chaosSpecs = append(chaosSpecs, v)
		return nil
	})
	flag.Parse()

	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// A replica's state is owned by its replication stream: it starts
	// empty (the bootstrap replaces everything), keeps no journal of its
	// own, and refuses local writes.
	var db *core.Database
	var st *segstore.Store
	var err error
	if *replicaOf != "" {
		db, err = core.Open(core.DefaultOptions(), core.WithParallelism(*jobs), core.WithQueryCache(*qCache))
	} else {
		policy, perr := wal.ParsePolicy(*syncMode)
		if perr != nil {
			log.Fatalf("vdbserver: %v", perr)
		}
		st, err = segstore.Open(*dataDir, segstore.Options{
			Core:         core.DefaultOptions(),
			Extra:        []core.OpenOption{core.WithParallelism(*jobs), core.WithQueryCache(*qCache)},
			ClipCache:    *clipCache,
			Policy:       policy,
			SyncInterval: *syncIvl,
			Fanout:       *fanout,
		})
		if st != nil {
			db = st.DB()
		}
	}
	if err != nil {
		log.Fatalf("vdbserver: %v", err)
	}

	opts := []server.Option{
		server.WithLogger(logger),
		server.WithTimeout(*timeout),
		server.WithMaxBody(*maxBody),
	}
	if *rateLimit > 0 || *clientRate > 0 || *maxInflight > 0 {
		opts = append(opts, server.WithAdmission(admission.New(admission.Config{
			Rate:         *rateLimit,
			Burst:        *rateBurst,
			ClientRate:   *clientRate,
			ClientBurst:  *clientBurst,
			MaxInflight:  *maxInflight,
			QueueDepth:   *queueDepth,
			QueueTimeout: *queueWait,
		})))
		logger.Info("admission control enabled",
			"rate", *rateLimit, "clientRate", *clientRate,
			"maxInflight", *maxInflight, "queueDepth", *queueDepth)
	}
	var injector *chaos.Injector
	if len(chaosSpecs) > 0 {
		faults, err := chaos.ParseFaults(chaosSpecs)
		if err != nil {
			log.Fatalf("vdbserver: %v", err)
		}
		injector = chaos.New(faults, *chaosSeed)
		opts = append(opts, server.WithExtraMetrics(func(counters, _ map[string]float64) {
			for kind, n := range injector.Stats() {
				counters["videodb_chaos_injected_"+kind+"_total"] = float64(n)
			}
		}))
		logger.Warn("CHAOS FAULT INJECTION ENABLED", "faults", chaosSpecs, "seed", *chaosSeed)
	}
	var replica *cluster.Replica
	if st == nil {
		replica = cluster.StartReplica(db, *replicaOf,
			cluster.WithReplicaInterval(*replIvl),
			cluster.WithReplicaLogger(logger))
		opts = append(opts, server.WithReplica(replica))
	} else {
		// The store already recovered and installed its WAL; the server
		// needs the handles for flushing, replication, metrics and health.
		res := st.Replay()
		if res.Damaged {
			logger.Warn("journal had a torn or corrupt tail; truncated to last valid record",
				"dir", *dataDir, "replayed", res.Records,
				"truncatedBytes", res.TruncatedBytes(), "reason", res.Reason)
		} else {
			logger.Info("segment store opened", "dir", *dataDir,
				"segments", st.Stats().Segments, "replayed", res.Records)
		}
		opts = append(opts, server.WithStorage(st), server.WithJournal(st.Journal()), server.WithRecoveryInfo(res))
		if *compactIvl > 0 {
			st.StartCompactor(*compactIvl, func(err error) {
				logger.Error("segment compaction failed", "err", err)
			})
		}
	}
	srv := server.New(db, opts...)
	if *corpus != "" {
		cat, err := store.OpenCatalog(*corpus)
		if err != nil {
			log.Fatalf("vdbserver: opening corpus: %v", err)
		}
		srv = srv.WithMedia(cat)
		fmt.Printf("media endpoints enabled over %s (%d clips)\n", *corpus, len(cat.Names()))
	}

	// Chaos wraps the whole API stack so injected faults look exactly
	// like a degraded process from the outside — admission, timeout and
	// metrics middleware all experience them too.
	handler := srv.Handler()
	if injector != nil {
		handler = injector.Middleware(handler)
	}
	// The pprof mux sits outside the API middleware stack on purpose:
	// the per-request timeout would truncate a 30-second CPU profile,
	// and profile downloads have no business in the request metrics.
	if *pprofOn {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof endpoints enabled", "path", "/debug/pprof/")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *rdTO,
		WriteTimeout:      *wrTO,
		IdleTimeout:       *idleTO,
		ErrorLog:          slog.NewLogLogger(logger.Handler(), slog.LevelWarn),
		// Deriving request contexts from the signal context cancels
		// in-flight ingest analysis pipelines on shutdown: a SIGTERM
		// aborts the worker pool mid-clip (the upload answers 503)
		// instead of holding the drain window open for minutes of
		// analysis nobody will wait for.
		BaseContext: func(net.Listener) context.Context { return ctx },
	}

	fmt.Printf("serving %d clips (%d shots) on %s\n", db.ClipCount(), db.ShotCount(), *addr)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.ListenAndServe() }()

	select {
	case err := <-serveErr:
		log.Fatalf("vdbserver: %v", err)
	case <-ctx.Done():
	}
	stop()
	logger.Info("shutting down, draining in-flight requests", "grace", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		logger.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("vdbserver: %v", err)
	}
	if replica != nil {
		replica.Close()
	}
	// All mutating requests have drained; the store's Close stops the
	// compactor and closes the journal, whose final fsync puts every
	// record on disk before the process exits.
	if st != nil {
		if err := st.Close(); err != nil {
			logger.Error("closing segment store", "err", err)
			os.Exit(1)
		}
	}
	logger.Info("exited cleanly")
}
