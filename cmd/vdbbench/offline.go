package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"videodb/internal/benchfmt"
	"videodb/internal/core"
	"videodb/internal/experiments"
	"videodb/internal/obs"
	"videodb/internal/rng"
	"videodb/internal/varindex"
	"videodb/internal/video"
)

// offlineConfig parameterizes an in-process run.
type offlineConfig struct {
	Scale   float64
	Seed    uint64
	Queries int
	Batch   int
	Workers int
	// QueryCache is the query-result cache capacity; 0 disables the
	// cache and skips the cached-query phase.
	QueryCache int
	// Serial controls the serial (-j 1) ingest reference pass; skipping
	// it halves the wall-clock of large-scale runs at the cost of the
	// ingest_serial_* and ingest_parallel_speedup metrics.
	Serial bool
	// StorageFlushes splits the corpus across this many segment flushes
	// in the storage phase (0 skips the phase and its startup_seconds /
	// rss_peak_bytes metrics).
	StorageFlushes int
	// StorageDir receives the storage phase's segment store; empty uses
	// a temp directory removed afterwards.
	StorageDir string
}

// runOffline drives core.Database directly: corpus synthesis (untimed),
// ingest (timed), then the query phases. Synthesis is excluded from the
// ingest measurement so frames/sec reports the analysis pipeline —
// SBD, scene-tree construction, indexing — not the pixel generator.
//
// Ingest is measured twice: once fully serial (-j 1) as the reference,
// then at the configured width (-j, 0 = GOMAXPROCS), whose figures are
// the artifact's headline `ingest_*` metrics and the perf gate's
// subject. The ratio lands in `ingest_parallel_speedup`, so every
// artifact documents what the parallel pipeline buys on its hardware.
func runOffline(cfg offlineConfig) (benchfmt.Report, error) {
	if cfg.Queries <= 0 {
		return benchfmt.Report{}, fmt.Errorf("offline mode needs -queries > 0")
	}
	defs := experiments.Table5Corpus()
	clips := make([]*video.Clip, 0, len(defs))
	var frames int
	for _, d := range defs {
		clip, _, err := d.Build(cfg.Scale)
		if err != nil {
			return benchfmt.Report{}, fmt.Errorf("synthesizing %q: %w", d.Name, err)
		}
		frames += clip.Len()
		clips = append(clips, clip)
	}

	opts := core.DefaultOptions()

	// Serial reference pass (-j 1) into a throwaway database, skipped
	// with -serial=false.
	var serialDur time.Duration
	if cfg.Serial {
		serialDB, err := core.Open(opts, core.WithParallelism(1))
		if err != nil {
			return benchfmt.Report{}, err
		}
		serialStart := time.Now()
		if err := serialDB.IngestAll(clips); err != nil {
			return benchfmt.Report{}, fmt.Errorf("serial ingest: %w", err)
		}
		serialDur = time.Since(serialStart)
	}

	db, err := core.Open(opts, core.WithParallelism(cfg.Workers), core.WithQueryCache(cfg.QueryCache))
	if err != nil {
		return benchfmt.Report{}, err
	}

	ingestStart := time.Now()
	if err := db.IngestAll(clips); err != nil {
		return benchfmt.Report{}, fmt.Errorf("ingest: %w", err)
	}
	ingestDur := time.Since(ingestStart)

	queries := sampleQueries(db, cfg.Queries, cfg.Seed)
	qopt := db.Options().Query

	// The single-query phase bypasses the cache: `query_latency` is the
	// index's own latency, the reference the cached phase is judged
	// against. It runs on the steady-state append path with a reused
	// destination, and the whole phase is bracketed by one Mallocs delta
	// — `allocs_per_query` is what the path really allocates per query,
	// which the perf gate pins at zero.
	var dst []core.Match
	var qerr error
	warm := queries
	if len(warm) > 64 {
		warm = warm[:64]
	}
	for _, q := range warm {
		if dst, qerr = db.QueryUncachedAppend(dst[:0], q, qopt); qerr != nil {
			return benchfmt.Report{}, fmt.Errorf("warmup query: %w", qerr)
		}
	}
	queryHist := obs.NewHistogram()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	queryStart := time.Now()
	var matched int64
	for _, q := range queries {
		t0 := time.Now()
		if dst, qerr = db.QueryUncachedAppend(dst[:0], q, qopt); qerr != nil {
			return benchfmt.Report{}, fmt.Errorf("query: %w", qerr)
		}
		queryHist.RecordDuration(time.Since(t0))
		matched += int64(len(dst))
	}
	queryDur := time.Since(queryStart)
	runtime.ReadMemStats(&msAfter)
	allocsPerQuery := float64(msAfter.Mallocs-msBefore.Mallocs) / float64(len(queries))

	metrics := []benchfmt.Metric{
		{Name: "corpus_clips", Unit: "clips", Value: float64(len(clips))},
		{Name: "corpus_frames", Unit: "frames", Value: float64(frames)},
		{Name: "indexed_shots", Unit: "shots", Value: float64(db.ShotCount())},
		{Name: "ingest_seconds", Unit: "seconds", Value: ingestDur.Seconds()},
		{Name: "ingest_frames_per_sec", Unit: "frames/sec",
			Value: float64(frames) / ingestDur.Seconds()},
		{Name: "ingest_clips_per_sec", Unit: "clips/sec",
			Value: float64(len(clips)) / ingestDur.Seconds()},
		{Name: "ingest_workers", Unit: "workers", Value: float64(db.Workers())},
		benchfmt.LatencyMetric("query_latency", queryHist),
		{Name: "query_throughput", Unit: "queries/sec",
			Value: float64(len(queries)) / queryDur.Seconds()},
		{Name: "query_mean_matches", Unit: "matches/query",
			Value: float64(matched) / float64(len(queries))},
		{Name: "allocs_per_query", Unit: "allocs/query", Value: allocsPerQuery},
	}
	if cfg.Serial {
		metrics = append(metrics,
			benchfmt.Metric{Name: "ingest_serial_seconds", Unit: "seconds", Value: serialDur.Seconds()},
			benchfmt.Metric{Name: "ingest_frames_per_sec_serial", Unit: "frames/sec",
				Value: float64(frames) / serialDur.Seconds()},
			benchfmt.Metric{Name: "ingest_parallel_speedup", Unit: "x",
				Value: serialDur.Seconds() / ingestDur.Seconds()},
		)
	}

	// The batch phase calls QueryBatch, the function POST
	// /api/query/batch serves: every point of a batch answers from one
	// pinned view, through the query cache when one is configured. The
	// stream is seen here for the first time, so with a cache each point
	// is a miss — kernel, one cache insert, one copy out — and
	// `batch_query_throughput` beside the uncached `query_throughput`
	// above reads as what the serving path adds to the kernel.
	if cfg.Batch > 0 {
		batchHist := obs.NewHistogram()
		batchStart := time.Now()
		var batched int
		for lo := 0; lo < len(queries); lo += cfg.Batch {
			hi := lo + cfg.Batch
			if hi > len(queries) {
				hi = len(queries)
			}
			t0 := time.Now()
			if _, err := db.QueryBatch(queries[lo:hi], qopt); err != nil {
				return benchfmt.Report{}, fmt.Errorf("batch query: %w", err)
			}
			batchHist.RecordDuration(time.Since(t0))
			batched += hi - lo
		}
		batchDur := time.Since(batchStart)
		metrics = append(metrics,
			benchfmt.LatencyMetric("batch_latency", batchHist),
			benchfmt.Metric{Name: "batch_query_throughput", Unit: "queries/sec",
				Value: float64(batched) / batchDur.Seconds()},
		)
	}

	// Cached phase: every query repeats against an unchanged database,
	// so after one warm pass the cache answers them all. The warm pass
	// doubles as the differential check — each cached answer is compared
	// against the uncached reference, and any divergence fails the run.
	if cfg.QueryCache > 0 {
		var mismatches int64
		for _, q := range queries {
			cached, err := db.QueryWithOptions(q, qopt)
			if err != nil {
				return benchfmt.Report{}, fmt.Errorf("cached query: %w", err)
			}
			reference, err := db.QueryUncached(q, qopt)
			if err != nil {
				return benchfmt.Report{}, fmt.Errorf("reference query: %w", err)
			}
			if len(cached) != len(reference) {
				mismatches++
				continue
			}
			for i := range cached {
				if cached[i].Entry != reference[i].Entry {
					mismatches++
					break
				}
			}
		}
		if mismatches > 0 {
			return benchfmt.Report{}, fmt.Errorf("cached path diverged from the uncached reference on %d of %d queries", mismatches, len(queries))
		}

		cachedHist := obs.NewHistogram()
		cachedStart := time.Now()
		for _, q := range queries {
			t0 := time.Now()
			if _, err := db.QueryWithOptions(q, qopt); err != nil {
				return benchfmt.Report{}, fmt.Errorf("cached query: %w", err)
			}
			cachedHist.RecordDuration(time.Since(t0))
		}
		cachedDur := time.Since(cachedStart)
		cs := db.QueryCacheStats()
		hitRate := 0.0
		if cs.Hits+cs.Misses > 0 {
			hitRate = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
		}
		metrics = append(metrics,
			benchfmt.LatencyMetric("query_cached_latency", cachedHist),
			benchfmt.Metric{Name: "query_cached_throughput", Unit: "queries/sec",
				Value: float64(len(queries)) / cachedDur.Seconds()},
			benchfmt.Metric{Name: "query_cache_hit_rate", Unit: "ratio", Value: hitRate},
			benchfmt.Metric{Name: "query_cache_mismatches", Unit: "queries", Value: float64(mismatches)},
		)
		fmt.Printf("offline: %d cached repeats, p50 %.3gms p90 %.3gms p99 %.3gms (hit rate %.0f%%)\n",
			len(queries), cachedHist.Quantile(0.50)*1e3, cachedHist.Quantile(0.90)*1e3, cachedHist.Quantile(0.99)*1e3, 100*hitRate)
	}

	// Storage phase: the corpus flushed into mmap-able segments, the
	// reopen timed, and every query differentially checked against the
	// in-memory answers above. rss_peak_bytes is the process high-water
	// mark over the whole run — with the store mmap-ing segments instead
	// of decoding them into heap, it stays bounded as -scale grows.
	if cfg.StorageFlushes > 0 {
		dir := cfg.StorageDir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "vdbbench-store-*")
			if err != nil {
				return benchfmt.Report{}, err
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		sm, err := runStoragePhase(db, dir, cfg.StorageFlushes, queries, qopt)
		if err != nil {
			return benchfmt.Report{}, err
		}
		metrics = append(metrics, sm...)
		metrics = append(metrics, benchfmt.Metric{
			Name: "rss_peak_bytes", Unit: "bytes", Value: peakRSSBytes(),
		})
	}

	fmt.Printf("offline: %d clips, %d frames ingested in %v (%.0f frames/sec, -j %d)\n",
		len(clips), frames, ingestDur.Round(time.Millisecond),
		float64(frames)/ingestDur.Seconds(), db.Workers())
	if cfg.Serial {
		fmt.Printf("offline: serial reference (-j 1) %v (%.0f frames/sec) — speedup %.2fx\n",
			serialDur.Round(time.Millisecond), float64(frames)/serialDur.Seconds(),
			serialDur.Seconds()/ingestDur.Seconds())
	}
	fmt.Printf("offline: %d queries, p50 %.3gms p90 %.3gms p99 %.3gms, %.2f allocs/query\n",
		len(queries), queryHist.Quantile(0.50)*1e3, queryHist.Quantile(0.90)*1e3, queryHist.Quantile(0.99)*1e3, allocsPerQuery)

	return benchfmt.Report{
		Mode: "offline",
		Config: benchfmt.Config{
			Scale: cfg.Scale, Seed: cfg.Seed, Clips: len(clips),
			Queries: cfg.Queries, BatchSize: cfg.Batch, Workers: cfg.Workers,
			QueryCache: cfg.QueryCache, StorageFlushes: cfg.StorageFlushes,
		},
		Environment: environment(),
		Metrics:     metrics,
	}, nil
}

// sampleQueries derives n queries from the ingested shots' real feature
// vectors, jittered so result sets vary: realistic selectivity instead
// of uniform noise that would mostly miss the indexed range.
func sampleQueries(db *core.Database, n int, seed uint64) []varindex.Query {
	var feats []varindex.Query
	for _, rec := range db.Records() {
		for _, sr := range rec.Shots {
			feats = append(feats, varindex.Query{
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA,
			})
		}
	}
	r := rng.New(seed)
	out := make([]varindex.Query, n)
	for i := range out {
		base := feats[r.Intn(len(feats))]
		out[i] = varindex.Query{
			VarBA: jitter(r, base.VarBA),
			VarOA: jitter(r, base.VarOA),
		}
	}
	return out
}

// jitter perturbs a variance by ±20%, clamped non-negative.
func jitter(r *rng.RNG, v float64) float64 {
	j := v * r.Float64Range(0.8, 1.2)
	if j < 0 {
		return 0
	}
	return j
}
