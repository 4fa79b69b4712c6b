package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/vtest"
)

// runFor drives the load function against target for about a second and
// decodes the result object from the last line it printed.
func runFor(t *testing.T, cfg config) map[string]float64 {
	t.Helper()
	cfg.Concurrency, cfg.Duration = 2, time.Second
	var out bytes.Buffer
	if err := run(cfg, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]float64
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a flat JSON object: %v\n%s", err, out.String())
	}
	return res
}

// requireKeys fails unless res holds every key.
func requireKeys(t *testing.T, res map[string]float64, keys ...string) {
	t.Helper()
	for _, k := range keys {
		if _, ok := res[k]; !ok {
			t.Errorf("result lacks %q: %v", k, res)
		}
	}
}

// TestRunAgainstServer drives a real in-memory node: every request
// answers, nothing fails.
func TestRunAgainstServer(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(vtest.TwoShotClip("a", 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(db).Handler())
	defer ts.Close()

	res := runFor(t, config{Target: ts.URL})
	requireKeys(t, res, "requests", "http_5xx", "transport_errors", "shed_rate")
	if res["requests"] <= 0 || res["http_5xx"] != 0 || res["transport_errors"] != 0 {
		t.Errorf("requests=%v http_5xx=%v transport_errors=%v, want >0, 0, 0",
			res["requests"], res["http_5xx"], res["transport_errors"])
	}
}

// fakeCoordinator answers every load request 200, flags every third
// /api/query answer partial (counting what it flagged), sheds the
// "abuser" client key with 429, and serves a fixed cluster status and
// reshard report.
type fakeCoordinator struct {
	queries, partial atomic.Int64
}

const fakeStatus = `{"shards":[{},{},{}],"maxLagBytes":7,"fetches":120,"retries":3,"hedges":5,"hedgeWins":2}`

func (f *fakeCoordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get("X-Videodb-Client") == "abuser" {
		w.WriteHeader(http.StatusTooManyRequests)
		return
	}
	switch r.URL.Path {
	case "/api/cluster/status":
		_, _ = w.Write([]byte(fakeStatus))
	case "/api/cluster/reshard":
		_, _ = w.Write([]byte(`{"fromShards":3,"toShards":4,"movedClips":9,"cutoverSeconds":0.01,"dualReadSeconds":0.2}`))
	case "/api/clips":
		_, _ = w.Write([]byte("[]"))
	case "/api/query":
		if f.queries.Add(1)%3 == 0 {
			f.partial.Add(1)
			w.Header().Set("X-Videodb-Partial", "true")
		} else {
			w.Header().Set("X-Videodb-Partial", "false")
		}
		_, _ = w.Write([]byte(`{"matches":[],"partial":false}`))
	default:
		_, _ = w.Write([]byte("{}"))
	}
}

// TestRunClusterCopiesCoordinatorCounters: partial answers are counted
// exactly, the status probe's shard count and coordinator counters are
// copied through, and a mid-run reshard's report lands in the result.
func TestRunClusterCopiesCoordinatorCounters(t *testing.T) {
	fake := &fakeCoordinator{}
	ts := httptest.NewServer(fake)
	defer ts.Close()

	res := runFor(t, config{Target: ts.URL, Cluster: true,
		Reshard: `{"add":[{"primary":"http://s4"}]}`, ReshardAt: 0.5})
	requireKeys(t, res, "http_5xx", "transport_errors", "partial_answers", "cluster_shards",
		"coord_fetches", "coord_retries", "coord_hedges", "coord_hedge_wins",
		"replication_lag_bytes_max", "reshard_moved_clips", "reshard_cutover_seconds", "reshard_dual_read_seconds")
	if got, want := res["partial_answers"], float64(fake.partial.Load()); got != want || want == 0 {
		t.Errorf("partial_answers = %v, the fake flagged %v", got, want)
	}
	for k, want := range map[string]float64{
		"cluster_shards": 3, "coord_fetches": 120, "coord_retries": 3, "coord_hedges": 5,
		"coord_hedge_wins": 2, "replication_lag_bytes_max": 7, "reshard_moved_clips": 9,
		"reshard_cutover_seconds": 0.01, "reshard_dual_read_seconds": 0.2,
	} {
		if res[k] != want {
			t.Errorf("%s = %v, want %v", k, res[k], want)
		}
	}
}

// TestRunChaosSeparatesAbuser: the abusive pool's 429s land in abuse_*
// and never in the healthy workers' shed rate.
func TestRunChaosSeparatesAbuser(t *testing.T) {
	ts := httptest.NewServer(&fakeCoordinator{})
	defer ts.Close()

	res := runFor(t, config{Target: ts.URL, Chaos: true})
	requireKeys(t, res, "http_5xx", "transport_errors", "shed_rate", "abuse_shed", "abuse_5xx",
		"coord_hedge_wins", "coord_fetches", "coord_retries", "coord_hedges")
	if res["abuse_shed"] <= 0 || res["abuse_5xx"] != 0 {
		t.Errorf("abuse_shed=%v abuse_5xx=%v, want >0 and 0", res["abuse_shed"], res["abuse_5xx"])
	}
	if res["shed_rate"] != 0 || res["http_5xx"] != 0 {
		t.Errorf("healthy shed_rate=%v http_5xx=%v, want 0 and 0", res["shed_rate"], res["http_5xx"])
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
