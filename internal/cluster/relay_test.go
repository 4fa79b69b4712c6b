package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/synth"
)

// fetch answers method url with body and returns the status and body,
// checking that the answer's Content-Length is its length.
func fetch(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode == http.StatusOK && resp.ContentLength != int64(len(data)) {
		t.Errorf("%s %s: Content-Length %d for a %d-byte answer", method, url, resp.ContentLength, len(data))
	}
	return resp.StatusCode, data
}

// TestScatterGatherRelaysNodeBytes: the coordinator relays the bytes
// its shards sent. For K = 1, 2, 3 its query answer is the union node's
// match array spliced into {"matches":…,"partial":false}, and its batch
// answer carries the union node's results array byte for byte. One clip
// name needs escaping, so the escaped path is relayed too.
func TestScatterGatherRelaysNodeBytes(t *testing.T) {
	clips := append(makeClips(t, 5), makeClip(t, synth.GenreNews, "clip-<é>&", 950))
	var batch server.BatchRequestJSON
	var queries []string
	for _, p := range [][2]float64{{25, 25}, {4, 9}, {100, 1}} {
		ba, oa := p[0], p[1]
		batch.Queries = append(batch.Queries, server.BatchQueryJSON{VarBA: &ba, VarOA: &oa})
		queries = append(queries, fmt.Sprintf("/api/query?varba=%g&varoa=%g", ba, oa))
	}
	queries = append(queries, "/api/query?varba=25&varoa=25&alpha=1e6&beta=1e6")
	wide := 1e6
	batch.Alpha, batch.Beta = &wide, &wide
	batchBody, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}
	escaped := false
	for _, k := range []int{1, 2, 3} {
		tc := newTestCluster(t, k, clips)
		single := httptest.NewServer(server.New(tc.union).Handler())
		t.Cleanup(single.Close)
		for _, q := range queries {
			_, node := fetch(t, http.MethodGet, single.URL+q, nil)
			code, got := fetch(t, http.MethodGet, tc.front.URL+q, nil)
			want := `{"matches":` + strings.TrimSuffix(string(node), "\n") + `,"partial":false}` + "\n"
			if code != http.StatusOK || string(got) != want {
				t.Fatalf("k=%d %s: status %d\n got: %s\nwant: %s", k, q, code, got, want)
			}
			escaped = escaped || bytes.Contains(node, []byte(`"clip-\u003cé\u003e\u0026"`))
		}
		_, node := fetch(t, http.MethodPost, single.URL+"/api/query/batch", batchBody)
		results, okPrefix := strings.CutPrefix(string(node), `{"results":`)
		results, okSuffix := strings.CutSuffix(results, "}\n")
		if !okPrefix || !okSuffix {
			t.Fatalf("node batch answer has an unexpected shape: %s", node)
		}
		code, got := fetch(t, http.MethodPost, tc.front.URL+"/api/query/batch", batchBody)
		if want := `{"results":` + results + `,"partial":false}` + "\n"; code != http.StatusOK || string(got) != want {
			t.Fatalf("k=%d batch: status %d\n got: %s\nwant: %s", k, code, got, want)
		}
	}
	if !escaped {
		t.Error("no query answer carried the escaped clip name")
	}
}

// TestFanoutReusesShardConnections: concurrent fan-outs reuse the
// coordinator's shard connections instead of dialing one per request
// beyond the transport's idle pool. Each shard may see one connection
// per concurrent client plus one for the prober. Once the coordinator
// is closed, no pooled connection holds up a shard's graceful shutdown.
func TestFanoutReusesShardConnections(t *testing.T) {
	const shards, clients, perClient = 3, 8, 40
	clips := makeClips(t, 6)
	ring := NewRing(shards, 0)
	var dials atomic.Int64
	cfg := Config{ProbeInterval: 200 * time.Millisecond, Timeout: 5 * time.Second}
	dbs := make([]*core.Database, shards)
	backends := make([]*httptest.Server, shards)
	for i := range dbs {
		dbs[i] = newDB(t)
		ts := httptest.NewUnstartedServer(server.New(dbs[i]).Handler())
		ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				dials.Add(1)
			}
		}
		ts.Start()
		t.Cleanup(ts.Close)
		backends[i] = ts
		cfg.Shards = append(cfg.Shards, ShardConfig{Primary: ts.URL})
	}
	for _, clip := range clips {
		if _, err := dbs[ring.Owner(clip.Name)].Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, err := http.Get(front.URL + "/api/query?varba=25&varoa=25&alpha=1e6&beta=1e6")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()
	coord.Close()
	if n := dials.Load(); n > shards*(clients+1) {
		t.Errorf("%d clients x %d fan-outs opened %d shard connections, want at most %d", clients, perClient, n, shards*(clients+1))
	}
	for i, ts := range backends {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		if err := ts.Config.Shutdown(ctx); err != nil {
			t.Errorf("shard %d: graceful shutdown after the coordinator closed: %v", i, err)
		}
		cancel()
	}
}
