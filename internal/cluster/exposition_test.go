package cluster

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"videodb/internal/admission"
	"videodb/internal/chaos"
	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/store"
	"videodb/internal/wal"
)

// expositionContract is every series shape — "family type sample{label
// keys}" — that a store-backed vdbserver with admission and chaos on, a
// replica of it, and a vdbcoord in front of both emitted before the
// instruments moved into internal/obs. Dashboards and the smoke scripts
// grep these names, so a refactor may add to the set but never drop from
// it. (Label values, and so the histogram's le edges, are not part of
// the contract.)
var expositionContract = map[string][]string{
	"primary": {
		"videodb_admission_admitted_total counter videodb_admission_admitted_total{}",
		"videodb_admission_clients gauge videodb_admission_clients{}",
		"videodb_admission_inflight gauge videodb_admission_inflight{}",
		"videodb_admission_queued_total counter videodb_admission_queued_total{}",
		"videodb_admission_shed_client_limit_total counter videodb_admission_shed_client_limit_total{}",
		"videodb_admission_shed_queue_full_total counter videodb_admission_shed_queue_full_total{}",
		"videodb_admission_shed_queue_timeout_total counter videodb_admission_shed_queue_timeout_total{}",
		"videodb_admission_shed_rate_limit_total counter videodb_admission_shed_rate_limit_total{}",
		"videodb_admission_shed_total counter videodb_admission_shed_total{}",
		"videodb_admission_waiting gauge videodb_admission_waiting{}",
		"videodb_batch_queries_total counter videodb_batch_queries_total{}",
		"videodb_chaos_injected_latency_total counter videodb_chaos_injected_latency_total{}",
		"videodb_clip_cache_capacity gauge videodb_clip_cache_capacity{}",
		"videodb_clip_cache_hits_total counter videodb_clip_cache_hits_total{}",
		"videodb_clip_cache_misses_total counter videodb_clip_cache_misses_total{}",
		"videodb_clip_cache_size gauge videodb_clip_cache_size{}",
		"videodb_clips gauge videodb_clips{}",
		"videodb_cold_clips gauge videodb_cold_clips{}",
		"videodb_http_request_duration_seconds histogram videodb_http_request_duration_seconds_bucket{le,route}",
		"videodb_http_request_duration_seconds histogram videodb_http_request_duration_seconds_count{route}",
		"videodb_http_request_duration_seconds histogram videodb_http_request_duration_seconds_sum{route}",
		"videodb_http_requests_total counter videodb_http_requests_total{code,route}",
		"videodb_indexed_shots gauge videodb_indexed_shots{}",
		"videodb_ingest_frames_total counter videodb_ingest_frames_total{}",
		"videodb_ingest_phase_seconds_total counter videodb_ingest_phase_seconds_total{phase}",
		"videodb_ingest_workers gauge videodb_ingest_workers{}",
		"videodb_ingests_total counter videodb_ingests_total{}",
		"videodb_memtable_clips gauge videodb_memtable_clips{}",
		"videodb_migration_export_bytes_total counter videodb_migration_export_bytes_total{}",
		"videodb_migration_exports_total counter videodb_migration_exports_total{}",
		"videodb_migration_import_bytes_total counter videodb_migration_import_bytes_total{}",
		"videodb_migration_imports_total counter videodb_migration_imports_total{}",
		"videodb_query_batches_total counter videodb_query_batches_total{}",
		"videodb_query_cache_capacity gauge videodb_query_cache_capacity{}",
		"videodb_query_cache_evictions_total counter videodb_query_cache_evictions_total{}",
		"videodb_query_cache_hits_total counter videodb_query_cache_hits_total{}",
		"videodb_query_cache_misses_total counter videodb_query_cache_misses_total{}",
		"videodb_query_cache_size gauge videodb_query_cache_size{}",
		"videodb_recovery_damaged gauge videodb_recovery_damaged{}",
		"videodb_recovery_replayed_records gauge videodb_recovery_replayed_records{}",
		"videodb_recovery_truncated_bytes gauge videodb_recovery_truncated_bytes{}",
		"videodb_removes_total counter videodb_removes_total{}",
		"videodb_replication_bytes_total counter videodb_replication_bytes_total{}",
		"videodb_replication_chunks_total counter videodb_replication_chunks_total{}",
		"videodb_replication_snapshots_total counter videodb_replication_snapshots_total{}",
		"videodb_segment_bytes gauge videodb_segment_bytes{}",
		"videodb_segment_compactions_total counter videodb_segment_compactions_total{}",
		"videodb_segment_flushes_total counter videodb_segment_flushes_total{}",
		"videodb_segment_max_generation gauge videodb_segment_max_generation{}",
		"videodb_segments gauge videodb_segments{}",
		"videodb_snapshot_last_success_timestamp_seconds gauge videodb_snapshot_last_success_timestamp_seconds{}",
		"videodb_snapshots_total counter videodb_snapshots_total{}",
		"videodb_wal_bytes gauge videodb_wal_bytes{}",
		"videodb_wal_fsync_seconds_total counter videodb_wal_fsync_seconds_total{}",
		"videodb_wal_fsyncs_total counter videodb_wal_fsyncs_total{}",
		"videodb_wal_records_total counter videodb_wal_records_total{}",
		"videodb_wal_rotations_total counter videodb_wal_rotations_total{}",
	},
	"replica": {
		"videodb_batch_queries_total counter videodb_batch_queries_total{}",
		"videodb_clips gauge videodb_clips{}",
		"videodb_http_request_duration_seconds histogram videodb_http_request_duration_seconds_bucket{le,route}",
		"videodb_http_request_duration_seconds histogram videodb_http_request_duration_seconds_count{route}",
		"videodb_http_request_duration_seconds histogram videodb_http_request_duration_seconds_sum{route}",
		"videodb_http_requests_total counter videodb_http_requests_total{code,route}",
		"videodb_indexed_shots gauge videodb_indexed_shots{}",
		"videodb_ingest_frames_total counter videodb_ingest_frames_total{}",
		"videodb_ingest_phase_seconds_total counter videodb_ingest_phase_seconds_total{phase}",
		"videodb_ingest_workers gauge videodb_ingest_workers{}",
		"videodb_ingests_total counter videodb_ingests_total{}",
		"videodb_migration_export_bytes_total counter videodb_migration_export_bytes_total{}",
		"videodb_migration_exports_total counter videodb_migration_exports_total{}",
		"videodb_migration_import_bytes_total counter videodb_migration_import_bytes_total{}",
		"videodb_migration_imports_total counter videodb_migration_imports_total{}",
		"videodb_query_batches_total counter videodb_query_batches_total{}",
		"videodb_query_cache_capacity gauge videodb_query_cache_capacity{}",
		"videodb_query_cache_evictions_total counter videodb_query_cache_evictions_total{}",
		"videodb_query_cache_hits_total counter videodb_query_cache_hits_total{}",
		"videodb_query_cache_misses_total counter videodb_query_cache_misses_total{}",
		"videodb_query_cache_size gauge videodb_query_cache_size{}",
		"videodb_removes_total counter videodb_removes_total{}",
		"videodb_replica_applied_records_total counter videodb_replica_applied_records_total{}",
		"videodb_replica_bootstraps_total counter videodb_replica_bootstraps_total{}",
		"videodb_replica_cut gauge videodb_replica_cut{}",
		"videodb_replica_lag_bytes gauge videodb_replica_lag_bytes{}",
		"videodb_replication_bytes_total counter videodb_replication_bytes_total{}",
		"videodb_replication_chunks_total counter videodb_replication_chunks_total{}",
		"videodb_replication_snapshots_total counter videodb_replication_snapshots_total{}",
		"videodb_snapshots_total counter videodb_snapshots_total{}",
	},
	"coordinator": {
		"videodb_coord_backpressure_total counter videodb_coord_backpressure_total{}",
		"videodb_coord_batches_total counter videodb_coord_batches_total{}",
		"videodb_coord_fetches_total counter videodb_coord_fetches_total{}",
		"videodb_coord_hedge_wins_total counter videodb_coord_hedge_wins_total{}",
		"videodb_coord_hedges_suppressed_total counter videodb_coord_hedges_suppressed_total{}",
		"videodb_coord_hedges_total counter videodb_coord_hedges_total{}",
		"videodb_coord_node_up gauge videodb_coord_node_up{role,shard,url}",
		"videodb_coord_partial_total counter videodb_coord_partial_total{}",
		"videodb_coord_queries_total counter videodb_coord_queries_total{}",
		"videodb_coord_reshard_moved_clips_total counter videodb_coord_reshard_moved_clips_total{}",
		"videodb_coord_reshards_failed_total counter videodb_coord_reshards_failed_total{}",
		"videodb_coord_reshards_total counter videodb_coord_reshards_total{}",
		"videodb_coord_retries_suppressed_total counter videodb_coord_retries_suppressed_total{}",
		"videodb_coord_retries_total counter videodb_coord_retries_total{}",
		"videodb_coord_shard_failures_total counter videodb_coord_shard_failures_total{}",
		"videodb_coord_shard_reads_total counter videodb_coord_shard_reads_total{role,shard}",
		"videodb_coord_shard_requests_total counter videodb_coord_shard_requests_total{}",
		"videodb_coord_writes_total counter videodb_coord_writes_total{}",
	},
}

// seriesShapes scrapes base/api/metrics and returns the sorted set of
// "family type sample{sorted label keys}" strings it exposes. A sample
// belongs to the longest declared family its name extends (histogram
// samples carry _bucket/_sum/_count suffixes).
func seriesShapes(t *testing.T, base string) []string {
	t.Helper()
	resp, err := http.Get(base + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]string{}
	set := map[string]bool{}
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		sample, labels := line[:strings.LastIndexByte(line, ' ')], ""
		if i := strings.IndexByte(sample, '{'); i >= 0 {
			sample, labels = sample[:i], sample[i+1:len(sample)-1]
		}
		var keys []string
		for _, pair := range strings.Split(labels, `",`) {
			if k, _, ok := strings.Cut(pair, "="); ok {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		family := ""
		for name := range types {
			if strings.HasPrefix(sample, name) && len(name) > len(family) {
				family = name
			}
		}
		if family == "" {
			t.Errorf("%s: sample %q has no # TYPE line", base, sample)
			continue
		}
		set[family+" "+types[family]+" "+sample+"{"+strings.Join(keys, ",")+"}"] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// TestExpositionContract drives a primary wired the way cmd/vdbserver
// wires one (segment store, journal, recovery info, admission, the chaos
// counter hook), a replica of it, and a coordinator over both, then
// holds each /api/metrics to the pinned set.
func TestExpositionContract(t *testing.T) {
	st, err := segstore.Open(t.TempDir(), segstore.Options{Core: core.DefaultOptions(), Policy: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	faults, err := chaos.ParseFaults([]string{"latency:/api/query:1:1ms"})
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(faults, 1)
	primary := httptest.NewServer(inj.Middleware(server.New(st.DB(),
		server.WithStorage(st), server.WithJournal(st.Journal()), server.WithRecoveryInfo(st.Replay()),
		server.WithAdmission(admission.New(admission.Config{Rate: 1e6, MaxInflight: 64})),
		server.WithExtraMetrics(func(counters, _ map[string]float64) {
			for kind, n := range inj.Stats() {
				counters["videodb_chaos_injected_"+kind+"_total"] = float64(n)
			}
		}),
	).Handler()))
	t.Cleanup(primary.Close)

	rdb := newDB(t)
	rep := StartReplica(rdb, primary.URL, WithReplicaInterval(20*time.Millisecond))
	t.Cleanup(rep.Close)
	replica := httptest.NewServer(server.New(rdb, server.WithReplica(rep)).Handler())
	t.Cleanup(replica.Close)

	coord, err := New(Config{
		Shards:        []ShardConfig{{Primary: primary.URL, Replicas: []string{replica.URL}}},
		ProbeInterval: 100 * time.Millisecond, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	// One request of every kind that creates a series: ingest, query,
	// batch, snapshot, a 404, a delete — all through the coordinator
	// where it has the route.
	var vdbf bytes.Buffer
	if err := store.WriteClip(&vdbf, makeClips(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	post := func(url, ctype string, body []byte, want int) {
		t.Helper()
		resp, err := http.Post(url, ctype, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, want)
		}
	}
	post(front.URL+"/api/clips?name=clip-00", "application/octet-stream", vdbf.Bytes(), http.StatusCreated)
	post(primary.URL+"/api/snapshot", "", nil, http.StatusOK)
	post(front.URL+"/api/query/batch", "application/json", []byte(`{"queries":[{"varba":25,"varoa":25}]}`), http.StatusOK)
	waitFor(t, "replica catch-up", func() bool { return len(rdb.Clips()) == 1 })
	for _, base := range []string{front.URL, primary.URL, replica.URL} {
		getJSON(t, base+"/api/query?varba=25&varoa=25", nil)
		getJSON(t, base+"/api/clips/missing", nil)
	}

	for name, base := range map[string]string{"primary": primary.URL, "replica": replica.URL, "coordinator": front.URL} {
		got := seriesShapes(t, base)
		have := make(map[string]bool, len(got))
		for _, s := range got {
			have[s] = true
		}
		for _, want := range expositionContract[name] {
			if !have[want] {
				t.Errorf("%s no longer exposes %s", name, want)
			}
		}
		if testing.Verbose() {
			t.Logf("%s exposes:\n\t%s", name, strings.Join(got, "\n\t"))
		}
	}
}
