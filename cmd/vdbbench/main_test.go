package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"videodb/internal/benchfmt"
	"videodb/internal/obs"
)

// TestOfflineRunProducesValidArtifact runs the offline driver at the CI
// smoke scale and pushes its report through the full artifact
// round-trip (atomic write, decode, schema validation).
func TestOfflineRunProducesValidArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("offline run synthesizes a corpus; skipped with -short")
	}
	rep, err := runOffline(offlineConfig{Scale: 0.02, Seed: 1, Queries: 200, Batch: 8, QueryCache: 4096, Serial: true})
	if err != nil {
		t.Fatal(err)
	}
	rep.Timestamp = time.Now().UTC()

	path := filepath.Join(t.TempDir(), benchfmt.Filename(rep.Mode, rep.Timestamp))
	if err := writeArtifact(path, rep); err != nil {
		t.Fatal(err)
	}
	if err := validateArtifact(path); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := benchfmt.Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"ingest_frames_per_sec", "ingest_clips_per_sec",
		"ingest_workers", "ingest_frames_per_sec_serial", "ingest_parallel_speedup",
		"query_latency", "batch_latency", "batch_query_throughput",
		"query_cached_latency", "query_cached_throughput", "query_cache_hit_rate",
		"allocs_per_query",
	} {
		m, ok := got.Metric(name)
		if !ok {
			t.Errorf("artifact missing metric %q", name)
			continue
		}
		switch name {
		case "query_latency", "batch_latency", "query_cached_latency":
			if m.Distribution == nil || m.Distribution.Count == 0 {
				t.Errorf("metric %q has no distribution", name)
			}
		case "allocs_per_query":
			if !raceEnabled && m.Value >= 0.5 {
				t.Errorf("metric %q = %v, want the steady-state path alloc-free", name, m.Value)
			}
		default:
			if m.Value <= 0 {
				t.Errorf("metric %q = %v, want > 0", name, m.Value)
			}
		}
	}
	if m, _ := got.Metric("query_latency"); m.Distribution != nil && m.Distribution.Count != 200 {
		t.Errorf("query_latency count = %d, want 200", m.Distribution.Count)
	}
	if m, ok := got.Metric("query_cache_mismatches"); !ok || m.Value != 0 {
		t.Errorf("query_cache_mismatches = %+v, want present and 0", m)
	}
}

// TestValidateArtifactRejectsGarbage covers the CI gate's failure mode.
func TestValidateArtifactRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_offline_bogus.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := validateArtifact(path); err == nil {
		t.Error("validateArtifact accepted a wrong-version artifact")
	}
	if err := validateArtifact(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("validateArtifact accepted a missing file")
	}
}

// TestCompareArtifactsCLI exercises the gate end to end through the
// same code path the CI bench-gate job invokes, including the ISSUE's
// literal argument order (candidate path before trailing -tolerance).
func TestCompareArtifactsCLI(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, fps float64) string {
		h := obs.NewHistogram()
		ch := obs.NewHistogram()
		for i := 1; i <= 100; i++ {
			h.Record(float64(i) * 1e-4)
			ch.Record(float64(i) * 1e-6)
		}
		rep := benchfmt.Report{
			Mode:      "offline",
			Timestamp: time.Now().UTC(),
			Config:    benchfmt.Config{Scale: 0.02, Seed: 1, Clips: 22, Queries: 100},
			Environment: benchfmt.Environment{
				GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", NumCPU: 8,
			},
			Metrics: []benchfmt.Metric{
				{Name: "ingest_frames_per_sec", Unit: "frames/sec", Value: fps},
				benchfmt.LatencyMetric("query_latency", h),
				benchfmt.LatencyMetric("query_cached_latency", ch),
				{Name: "allocs_per_query", Unit: "allocs/query", Value: 0},
			},
		}
		path := filepath.Join(dir, name)
		if err := writeArtifact(path, rep); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", 1000)
	same := write("same.json", 1000)
	slow := write("slow.json", 700) // 30% drop: beyond any sane tolerance

	if err := compareArtifacts(old, []string{same, "-tolerance", "0.15"}, 0.15); err != nil {
		t.Errorf("identical artifacts failed the gate: %v", err)
	}
	if err := compareArtifacts(old, []string{slow}, 0.15); err == nil {
		t.Error("30%% ingest regression passed the gate")
	}
	if err := compareArtifacts(old, nil, 0.15); err == nil {
		t.Error("missing candidate path accepted")
	}
	if err := compareArtifacts(old, []string{slow, "-tolerance", "0.5"}, 0.15); err != nil {
		t.Errorf("trailing -tolerance not honored: %v", err)
	}
}

// TestFetchFeaturesFallsBackOnEmptyServer pins the empty-database path:
// the load phase must still have coordinates to query with.
func TestFetchFeaturesFallsBackOnEmptyServer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte("[]"))
	}))
	defer ts.Close()
	feats, err := fetchFeatures(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(feats) == 0 {
		t.Fatal("no fallback features for an empty server")
	}
}
