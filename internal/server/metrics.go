package server

import (
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"videodb/internal/obs"
)

// metrics is the server's instrument set beyond the per-route stats:
// the write-path, replication and migration counters, registered once
// in newMetrics and bumped lock-free by the handlers.
type metrics struct {
	reg *obs.Registry

	ingests, ingestFrames, removes, snapshots, batches, batchQueries *obs.Counter
	// replSnapshots / replChunks / replBytes count the primary side of
	// WAL shipping; the migr* counters the per-clip record traffic of
	// online resharding, in both directions.
	replSnapshots, replChunks, replBytes                       *obs.Counter
	migrExports, migrExportBytes, migrImports, migrImportBytes *obs.Counter

	// ingestPhaseNanos accumulates ingest-pipeline time by phase, indexed
	// like ingestPhases; detect is the sequential share inside analyze,
	// not an additional phase.
	ingestPhaseNanos [len(ingestPhases)]obs.Counter
	// snapshotLastUnix is the wall-clock second of the last successful
	// POST /api/snapshot; 0 until one succeeds.
	snapshotLastUnix atomic.Int64
}

var ingestPhases = [...]string{"analyze", "detect", "index", "tree"}

func newMetrics() *metrics {
	reg := &obs.Registry{}
	return &metrics{
		reg:             reg,
		ingests:         reg.Counter("videodb_ingests_total", "Clips ingested through POST /api/clips."),
		ingestFrames:    reg.Counter("videodb_ingest_frames_total", "Frames analyzed by live ingests through POST /api/clips."),
		removes:         reg.Counter("videodb_removes_total", "Clips removed through DELETE /api/clips/{name}."),
		snapshots:       reg.Counter("videodb_snapshots_total", "Snapshots persisted through POST /api/snapshot."),
		batches:         reg.Counter("videodb_query_batches_total", "Batch requests served through POST /api/query/batch."),
		batchQueries:    reg.Counter("videodb_batch_queries_total", "Individual queries answered inside batch requests."),
		replSnapshots:   reg.Counter("videodb_replication_snapshots_total", "Bootstrap snapshots streamed to replicas."),
		replChunks:      reg.Counter("videodb_replication_chunks_total", "WAL chunks shipped to replicas."),
		replBytes:       reg.Counter("videodb_replication_bytes_total", "WAL bytes shipped to replicas."),
		migrExports:     reg.Counter("videodb_migration_exports_total", "Clip records exported to a resharding coordinator."),
		migrExportBytes: reg.Counter("videodb_migration_export_bytes_total", "Clip record bytes exported to a resharding coordinator."),
		migrImports:     reg.Counter("videodb_migration_imports_total", "Clip records imported during a reshard."),
		migrImportBytes: reg.Counter("videodb_migration_import_bytes_total", "Clip record bytes imported during a reshard."),
	}
}

// routeStats counts and times one route's requests under its pattern
// label. Both halves stay nil until the route's first request, so the
// routes nobody calls cost a few words each, not a histogram.
type routeStats struct {
	pattern string
	latency atomic.Pointer[obs.Histogram]
	codes   atomic.Pointer[[]codeCount] // copy-on-write, sorted by code
}

type codeCount struct {
	code int
	n    *obs.Counter
}

// instrument wraps the route's handler (timeout included) so every
// request is counted under the status its client got, and timed.
func (rs *routeStats) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := asStatusWriter(w)
		next.ServeHTTP(sw, r)
		h := rs.latency.Load()
		if h == nil {
			rs.latency.CompareAndSwap(nil, obs.NewHistogram())
			h = rs.latency.Load()
		}
		h.RecordDuration(time.Since(start))
		rs.count(sw.status()).Add(1)
	})
}

// count returns the counter of one status code, publishing a grown copy
// of the list the first time the route answers with it.
func (rs *routeStats) count(code int) *obs.Counter {
	for {
		old := rs.codes.Load()
		var cur []codeCount
		if old != nil {
			cur = *old
		}
		i, found := slices.BinarySearchFunc(cur, code, func(c codeCount, code int) int { return c.code - code })
		if found {
			return cur[i].n
		}
		next := slices.Insert(slices.Clone(cur), i, codeCount{code, new(obs.Counter)})
		if rs.codes.CompareAndSwap(old, &next) {
			return next[i].n
		}
	}
}

// write renders the routes' stats, the registry, and caller-supplied
// counters and gauges (journal totals and database sizes are read at
// scrape time, not tracked incrementally).
func (m *metrics) write(p *obs.Writer, routes []*routeStats, counters, gauges map[string]float64) {
	p.Family("videodb_http_requests_total", "counter", "HTTP requests served, by route pattern and status code.")
	for _, rs := range routes {
		if codes := rs.codes.Load(); codes != nil {
			for _, c := range *codes {
				p.Sample("videodb_http_requests_total", float64(c.n.Load()), "route", rs.pattern, "code", strconv.Itoa(c.code))
			}
		}
	}
	p.Family("videodb_http_request_duration_seconds", "histogram", "Request latency, by route pattern.")
	for _, rs := range routes {
		if h := rs.latency.Load(); h != nil {
			p.Histogram("videodb_http_request_duration_seconds", h, "route", rs.pattern)
		}
	}
	m.reg.Write(p)

	p.Family("videodb_ingest_phase_seconds_total", "counter", "Ingest-pipeline time by phase; detect is the sequential share inside analyze.")
	for i, phase := range ingestPhases {
		p.Sample("videodb_ingest_phase_seconds_total", time.Duration(m.ingestPhaseNanos[i].Load()).Seconds(), "phase", phase)
	}
	if last := m.snapshotLastUnix.Load(); last > 0 {
		p.Family("videodb_snapshot_last_success_timestamp_seconds", "gauge", "Unix time of the last successful snapshot.")
		p.Sample("videodb_snapshot_last_success_timestamp_seconds", float64(last))
	}
	for _, set := range []struct {
		kind   string
		values map[string]float64
	}{{"counter", counters}, {"gauge", gauges}} {
		names := make([]string, 0, len(set.values))
		for n := range set.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			p.Family(n, set.kind, "")
			p.Sample(n, set.values[n])
		}
	}
}

// handleMetrics serves GET /api/metrics in Prometheus text format.
// Journal counters come straight from the writer's lifetime stats at
// scrape time; recovery gauges describe the last startup replay.
func (s *Server) handleMetrics(w http.ResponseWriter, routes []*routeStats) {
	w.Header().Set("Content-Type", obs.ContentType)
	cs := s.db.QueryCacheStats()
	counters := map[string]float64{
		"videodb_query_cache_hits_total":      float64(cs.Hits),
		"videodb_query_cache_misses_total":    float64(cs.Misses),
		"videodb_query_cache_evictions_total": float64(cs.Evictions),
	}
	gauges := map[string]float64{
		"videodb_clips":                float64(s.db.ClipCount()),
		"videodb_indexed_shots":        float64(s.db.ShotCount()),
		"videodb_ingest_workers":       float64(s.db.Workers()),
		"videodb_query_cache_size":     float64(cs.Size),
		"videodb_query_cache_capacity": float64(cs.Capacity),
	}
	if s.journal != nil {
		st := s.journal.Stats()
		counters["videodb_wal_records_total"] = float64(st.Records)
		counters["videodb_wal_fsyncs_total"] = float64(st.Fsyncs)
		counters["videodb_wal_fsync_seconds_total"] = st.FsyncSeconds
		counters["videodb_wal_rotations_total"] = float64(st.Rotations)
		gauges["videodb_wal_bytes"] = float64(st.Bytes)
	}
	if s.storage != nil {
		st := s.storage.Stats()
		counters["videodb_segment_flushes_total"] = float64(st.Flushes)
		counters["videodb_segment_compactions_total"] = float64(st.Compactions)
		gauges["videodb_segments"] = float64(st.Segments)
		gauges["videodb_segment_bytes"] = float64(st.SegmentBytes)
		gauges["videodb_segment_max_generation"] = float64(st.MaxGen)
		gauges["videodb_memtable_clips"] = float64(s.db.MemtableClips())
		gauges["videodb_cold_clips"] = float64(s.db.ColdClips())
		cc := s.db.ClipCacheStats()
		counters["videodb_clip_cache_hits_total"] = float64(cc.Hits)
		counters["videodb_clip_cache_misses_total"] = float64(cc.Misses)
		gauges["videodb_clip_cache_size"] = float64(cc.Entries)
		gauges["videodb_clip_cache_capacity"] = float64(cc.Max)
	}
	if s.recovery != nil {
		gauges["videodb_recovery_replayed_records"] = float64(s.recovery.Records)
		gauges["videodb_recovery_truncated_bytes"] = float64(s.recovery.TruncatedBytes())
		damaged := 0.0
		if s.recovery.Damaged {
			damaged = 1
		}
		gauges["videodb_recovery_damaged"] = damaged
	}
	if s.admission != nil {
		st := s.admission.Stats()
		counters["videodb_admission_shed_total"] = float64(st.ShedTotal)
		for _, reason := range []string{"rate_limit", "client_limit", "queue_full", "queue_timeout"} {
			counters["videodb_admission_shed_"+reason+"_total"] = float64(st.Shed[reason])
		}
		counters["videodb_admission_queued_total"] = float64(st.Queued)
		counters["videodb_admission_admitted_total"] = float64(st.Admitted)
		gauges["videodb_admission_inflight"] = float64(st.Inflight)
		gauges["videodb_admission_waiting"] = float64(st.Waiting)
		gauges["videodb_admission_clients"] = float64(st.Clients)
	}
	if s.replica != nil {
		st := s.replica.Stats()
		counters["videodb_replica_applied_records_total"] = float64(st.Applied)
		counters["videodb_replica_bootstraps_total"] = float64(st.Bootstraps)
		gauges["videodb_replica_lag_bytes"] = float64(st.LagBytes)
		gauges["videodb_replica_cut"] = float64(st.Cut)
	}
	for _, extra := range s.extraMetrics {
		extra(counters, gauges)
	}
	s.metrics.write(obs.NewWriter(w), routes, counters, gauges)
}
