package main

// The benchmark's fixed vocabulary. BENCHMARK.json at the repository
// root repeats these names, units and bounds for the driver;
// bench_test.go holds the two to each other.

type workloadSpec struct{ Name, Why string }

var workloadSpecs = []workloadSpec{
	{"ingest_pixels", "in-process pixel ingest of the Table-5 corpus: the only workload where region, pyramid, feature, sbd and scenetree do the work; no HTTP, no queries"},
	{"node_narrow", "one in-memory node over loopback HTTP, 12-20-match queries on a Zipf pool that fits the query cache plus browsing: fixed per-request cost dominates, kernel and merge do almost nothing"},
	{"cluster_wide", "coordinator over 3 shards, never-repeated alpha=beta=1 queries of ~3.4k matches and batches of 16: bytes, fan-out and merge dominate and the query cache is bypassed by construction"},
	{"store_rw", "one node on a WAL-backed segment store: paced writes beside cached-query and cold-tree reads, with count-triggered flush and compaction, then a crash-copy reopen"},
}

type metricSpec struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric
	// may worsen before a change is a regression (end-to-end only).
	Bound float64
}

// endToEnd is printed by every untraced run of every workload, which
// is why the names are roles, not request types. README.md maps each
// role to the request type that fills it on each workload. The timing
// bounds are the widest the driver allows because the host's own
// run-to-run spread reaches 22 % (README.md, "Steadiness"): a tighter
// bound would reject changes for the neighbours' load.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"alt_p50_ms", "ms", "lower", 0.25},
	{"heap_live_mb", "MiB", "lower", 0.05},
}

// perLayer is printed by every traced run. A metric of a layer the
// workload never calls reads 0 there.
var perLayer = []metricSpec{
	// Ingest ladder (ingest_pixels).
	{Name: "region.tba_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "region.foa_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "pyramid.reduce_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "feature.analyze_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "feature.analyze_self_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "feature.shot_us_per_shot", Unit: "us", Better: "lower"},
	{Name: "sbd.detect_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "sbd.stage2_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sbd.stage3_ratio", Unit: "ratio", Better: "lower"},
	{Name: "scenetree.build_us_per_shot", Unit: "us", Better: "lower"},
	{Name: "varindex.build_us_per_kshot", Unit: "us", Better: "lower"},
	{Name: "core.ingest_self_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "core.ingest_parallel_speedup", Unit: "x", Better: "higher"},
	{Name: "core.ingest_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "core.ingest_bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "core.ingest_pass_p50_ms", Unit: "ms", Better: "lower"},
	// Query ladder (node_narrow, cluster_wide, store_rw).
	{Name: "varindex.search_us", Unit: "us", Better: "lower"},
	{Name: "varindex.matches_per_query", Unit: "count", Better: "lower"},
	{Name: "core.query_uncached_us", Unit: "us", Better: "lower"},
	{Name: "core.query_self_us", Unit: "us", Better: "lower"},
	{Name: "core.query_cached_us", Unit: "us", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.query_allocs", Unit: "count", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_allocs", Unit: "count", Better: "lower"},
	{Name: "server.bytes_out_per_query", Unit: "bytes", Better: "lower"},
	{Name: "server.shed_ratio", Unit: "ratio", Better: "lower"},
	{Name: "http.loopback_us", Unit: "us", Better: "lower"},
	{Name: "http.loopback_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.coord_us", Unit: "us", Better: "lower"},
	{Name: "cluster.coord_self_us", Unit: "us", Better: "lower"},
	{Name: "cluster.batch_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.fanout_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.retries_per_req", Unit: "ratio", Better: "lower"},
	{Name: "cluster.hedges_per_req", Unit: "ratio", Better: "lower"},
	{Name: "cluster.partial_ratio", Unit: "ratio", Better: "lower"},
	// Storage (store_rw).
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_record", Unit: "bytes", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.fsync_s", Unit: "s", Better: "lower"},
	{Name: "wal.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "core.import_us", Unit: "us", Better: "lower"},
	{Name: "core.import_self_us", Unit: "us", Better: "lower"},
	{Name: "core.clip_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.query_cold_us", Unit: "us", Better: "lower"},
	{Name: "segment.read_clip_us", Unit: "us", Better: "lower"},
	{Name: "segment.bytes_per_shot", Unit: "bytes", Better: "lower"},
	{Name: "segstore.flush_ms", Unit: "ms", Better: "lower"},
	{Name: "segstore.flush_count", Unit: "count", Better: "lower"},
	{Name: "segstore.compact_ms", Unit: "ms", Better: "lower"},
	{Name: "segstore.compact_count", Unit: "count", Better: "lower"},
	{Name: "segstore.compact_bytes_rewritten", Unit: "bytes", Better: "lower"},
	{Name: "segstore.stall_max_ms", Unit: "ms", Better: "lower"},
	{Name: "segstore.write_amp", Unit: "ratio", Better: "lower"},
	{Name: "segstore.open_ms", Unit: "ms", Better: "lower"},
	{Name: "store.startup_s", Unit: "s", Better: "lower"},
	{Name: "store.disk_bytes_per_shot", Unit: "bytes", Better: "lower"},
	// Request types behind the op/alt roles, from the traced window.
	{Name: "class.query_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "class.browse_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.browse_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "class.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "class.write_p99_ms", Unit: "ms", Better: "lower"},
	// Harness.
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.inputs_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}
