package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/synth"
	"videodb/internal/varindex"
	"videodb/internal/video"
)

// makeClips synthesizes n small clips with distinct seeds.
func makeClips(t *testing.T, n int) []*video.Clip {
	t.Helper()
	clips := make([]*video.Clip, n)
	genres := []synth.Genre{synth.GenreDrama, synth.GenreNews, synth.GenreCartoon}
	for i := range clips {
		clips[i] = makeClip(t, genres[i%len(genres)], fmt.Sprintf("clip-%02d", i), uint64(900+i))
	}
	return clips
}

// makeClip synthesizes one small clip of the given genre, name and seed.
func makeClip(t *testing.T, g synth.Genre, name string, seed uint64) *video.Clip {
	t.Helper()
	spec, err := synth.BuildClip(g, synth.ClipParams{Name: name, Shots: 5, DurationSec: 20, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	clip, _, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func newDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// testCluster is K shards behind a coordinator, plus a single node
// holding the union corpus as the equivalence oracle.
type testCluster struct {
	union    *core.Database
	shardDBs []*core.Database
	backends []*httptest.Server
	coord    *Coordinator
	front    *httptest.Server
}

// newTestCluster partitions clips across k shards by the same ring the
// coordinator routes with, and ingests the union into a single node.
func newTestCluster(t *testing.T, k int, clips []*video.Clip) *testCluster {
	t.Helper()
	return newWrappedCluster(t, k, clips, func(_ int, h http.Handler) http.Handler { return h })
}

// newWrappedCluster is newTestCluster with each shard's handler passed
// through wrap (given the shard's ordinal) before it starts serving.
func newWrappedCluster(t *testing.T, k int, clips []*video.Clip, wrap func(int, http.Handler) http.Handler) *testCluster {
	t.Helper()
	tc := &testCluster{union: newDB(t)}
	ring := NewRing(k, 0)
	cfg := Config{ProbeInterval: 200 * time.Millisecond, Timeout: 5 * time.Second}
	for i := 0; i < k; i++ {
		db := newDB(t)
		ts := httptest.NewServer(wrap(i, server.New(db).Handler()))
		t.Cleanup(ts.Close)
		tc.shardDBs = append(tc.shardDBs, db)
		tc.backends = append(tc.backends, ts)
		cfg.Shards = append(cfg.Shards, ShardConfig{Primary: ts.URL})
	}
	for _, clip := range clips {
		if _, err := tc.union.Ingest(clip); err != nil {
			t.Fatal(err)
		}
		if _, err := tc.shardDBs[ring.Owner(clip.Name)].Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	tc.coord = coord
	tc.front = httptest.NewServer(coord.Handler())
	t.Cleanup(tc.front.Close)
	return tc
}

func getJSON(t *testing.T, url string, out any) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, body)
		}
	}
	return resp.StatusCode, resp.Header
}

// queryPoints derives a query workload from the corpus itself (every
// shot's own feature point must match itself) plus a coarse grid.
func queryPoints(db *core.Database) [][2]float64 {
	var pts [][2]float64
	for _, rec := range db.Records() {
		for _, sr := range rec.Shots {
			pts = append(pts, [2]float64{sr.Feature.VarBA, sr.Feature.VarOA})
		}
	}
	for ba := 0.0; ba <= 100; ba += 25 {
		for oa := 0.0; oa <= 100; oa += 25 {
			pts = append(pts, [2]float64{ba, oa})
		}
	}
	return pts
}

// TestScatterGatherEquivalence is the property at the heart of the
// coordinator: for any query, the merged scatter-gather answer over K
// shards is byte-for-byte the single-node answer over the union corpus.
func TestScatterGatherEquivalence(t *testing.T) {
	clips := makeClips(t, 6)
	for _, k := range []int{1, 2, 3} {
		tc := newTestCluster(t, k, clips)
		single := httptest.NewServer(server.New(tc.union).Handler())
		t.Cleanup(single.Close)
		for _, p := range queryPoints(tc.union) {
			q := fmt.Sprintf("/api/query?varba=%g&varoa=%g", p[0], p[1])
			var want []server.MatchJSON
			if code, _ := getJSON(t, single.URL+q, &want); code != http.StatusOK {
				t.Fatalf("single node: status %d for %s", code, q)
			}
			var got server.QueryResponseJSON
			code, hdr := getJSON(t, tc.front.URL+q, &got)
			if code != http.StatusOK {
				t.Fatalf("k=%d: coordinator status %d for %s", k, code, q)
			}
			if got.Partial {
				t.Fatalf("k=%d: healthy cluster answered partial for %s", k, q)
			}
			if hdr.Get(HeaderPartial) != "false" {
				t.Fatalf("k=%d: %s header = %q, want false", k, HeaderPartial, hdr.Get(HeaderPartial))
			}
			if len(want) == 0 && len(got.Matches) == 0 {
				continue
			}
			if !reflect.DeepEqual(got.Matches, want) {
				t.Fatalf("k=%d: merged answer differs from single node for %s\n got: %+v\nwant: %+v",
					k, q, got.Matches, want)
			}
		}
	}
}

func TestBatchEquivalence(t *testing.T) {
	clips := makeClips(t, 6)
	tc := newTestCluster(t, 3, clips)
	single := httptest.NewServer(server.New(tc.union).Handler())
	t.Cleanup(single.Close)

	var req server.BatchRequestJSON
	for _, p := range queryPoints(tc.union) {
		ba, oa := p[0], p[1]
		req.Queries = append(req.Queries, server.BatchQueryJSON{VarBA: &ba, VarOA: &oa})
	}
	req.Queries = append(req.Queries, server.BatchQueryJSON{Impression: "bg=high obj=low"})
	body, _ := json.Marshal(req)

	post := func(url string, out any) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(data, out); err != nil {
				t.Fatalf("decoding %s: %v", url, err)
			}
		}
		return resp.StatusCode
	}
	var want server.BatchResponseJSON
	if code := post(single.URL+"/api/query/batch", &want); code != http.StatusOK {
		t.Fatalf("single node batch: status %d", code)
	}
	var got server.BatchResponseJSON
	if code := post(tc.front.URL+"/api/query/batch", &got); code != http.StatusOK {
		t.Fatalf("coordinator batch: status %d", code)
	}
	if got.Partial {
		t.Fatal("healthy cluster answered batch partial")
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("batch result count %d, want %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		if len(want.Results[i]) == 0 && len(got.Results[i]) == 0 {
			continue
		}
		if !reflect.DeepEqual(got.Results[i], want.Results[i]) {
			t.Fatalf("batch query %d differs\n got: %+v\nwant: %+v", i, got.Results[i], want.Results[i])
		}
	}
}

// TestBatchShortShardAnswerIsPartial: a shard that answers a batch
// with fewer result lists than queries is dropped from the gather like
// an undecodable body — the answer is marked partial and counted —
// instead of silently losing that shard's matches for the missing
// queries.
func TestBatchShortShardAnswerIsPartial(t *testing.T) {
	clips := makeClips(t, 6)
	ring := NewRing(2, 0)
	dbs := []*core.Database{newDB(t), newDB(t)}
	for _, clip := range clips {
		if _, err := dbs[ring.Owner(clip.Name)].Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	for i, db := range dbs {
		if len(db.Clips()) == 0 {
			t.Fatalf("shard %d owns no clip; the test needs both shards populated", i)
		}
	}
	whole := httptest.NewServer(server.New(dbs[0]).Handler())
	t.Cleanup(whole.Close)
	inner := server.New(dbs[1]).Handler()
	short := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/query/batch" {
			inner.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var resp server.BatchResponseJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("decoding the wrapped node's batch answer: %v", err)
		}
		resp.Results = resp.Results[:1]
		server.WriteJSON(w, resp)
	}))
	t.Cleanup(short.Close)
	coord, err := New(Config{
		Shards:        []ShardConfig{{Primary: whole.URL}, {Primary: short.URL}},
		ProbeInterval: 200 * time.Millisecond, Timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	ba, oa, wide := 25.0, 25.0, 1e6
	body, _ := json.Marshal(server.BatchRequestJSON{
		Queries: []server.BatchQueryJSON{{VarBA: &ba, VarOA: &oa}, {VarBA: &oa, VarOA: &ba}},
		Alpha:   &wide, Beta: &wide,
	})
	post := func(url string, out any) (int, http.Header) {
		resp, err := http.Post(url+"/api/query/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, _ := io.ReadAll(resp.Body)
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("decoding %s: %v\n%s", url, err, data)
		}
		return resp.StatusCode, resp.Header
	}
	var got server.BatchResponseJSON
	code, hdr := post(front.URL, &got)
	if code != http.StatusOK {
		t.Fatalf("coordinator batch: status %d, want 200", code)
	}
	if !got.Partial || hdr.Get(HeaderPartial) != "true" {
		t.Fatalf("short shard answer: partial=%v header=%q, want true", got.Partial, hdr.Get(HeaderPartial))
	}
	// The short shard contributes to no query: every result list is
	// the whole shard's own answer.
	var want server.BatchResponseJSON
	post(whole.URL, &want)
	if !reflect.DeepEqual(got.Results, want.Results) {
		t.Fatalf("partial batch is not the whole shard's answer\n got: %+v\nwant: %+v", got.Results, want.Results)
	}
	var st StatusJSON
	if code, _ := getJSON(t, front.URL+"/api/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if st.PartialQueries != 1 {
		t.Errorf("status counted %d partial answers, want 1", st.PartialQueries)
	}
}

func TestClipsListingMerged(t *testing.T) {
	clips := makeClips(t, 6)
	tc := newTestCluster(t, 3, clips)
	var got []server.ClipSummary
	if code, _ := getJSON(t, tc.front.URL+"/api/clips", &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(got) != len(clips) {
		t.Fatalf("listing has %d clips, want %d", len(got), len(clips))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].Name < got[j].Name }) {
		t.Error("merged listing is not sorted by name")
	}
}

// TestClipRouting checks per-clip reads and deletes land on the owning
// shard through the coordinator.
func TestClipRouting(t *testing.T) {
	clips := makeClips(t, 4)
	tc := newTestCluster(t, 3, clips)
	ring := NewRing(3, 0)

	var one struct {
		server.ClipSummary
		ShotTable []server.ShotJSON `json:"shotTable"`
	}
	if code, _ := getJSON(t, tc.front.URL+"/api/clips/"+clips[0].Name, &one); code != http.StatusOK {
		t.Fatalf("per-clip read through coordinator: status %d", code)
	}
	if one.Name != clips[0].Name || len(one.ShotTable) == 0 {
		t.Fatalf("per-clip read returned %+v", one)
	}
	if code, _ := getJSON(t, tc.front.URL+"/api/clips/no-such-clip", nil); code != http.StatusNotFound {
		t.Fatalf("missing clip: status %d, want 404", code)
	}

	victim := clips[1].Name
	owner := ring.Owner(victim)
	req, _ := http.NewRequest(http.MethodDelete, tc.front.URL+"/api/clips/"+victim, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete through coordinator: status %d", resp.StatusCode)
	}
	if _, ok := tc.shardDBs[owner].Clip(victim); ok {
		t.Fatalf("clip %q still on owning shard %d after coordinator delete", victim, owner)
	}

	resp2, err := http.Post(tc.front.URL+"/api/clips", "application/octet-stream", bytes.NewReader([]byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("nameless clustered ingest: status %d, want 400", resp2.StatusCode)
	}
}

// sharedDB is the replication source of a read-only server over its
// primary's own database: it has no stream of its own to report.
type sharedDB struct{ primary string }

func (r sharedDB) Stats() server.ReplicationStatus {
	return server.ReplicationStatus{Primary: r.primary, LagBytes: -1}
}

// TestSimilarKBeyondNeighbours: through the coordinator a k far beyond
// the neighbour count is a routed read that answers 200 with every
// neighbour. When the node sized its answer by k, the request killed the
// owning shard's primary, failed over, and killed each replica in turn;
// here every node of every shard must still be up and answering.
func TestSimilarKBeyondNeighbours(t *testing.T) {
	clips := makeClips(t, 4)
	ring := NewRing(2, 0)
	cfg := Config{ProbeInterval: 100 * time.Millisecond, Timeout: 5 * time.Second}
	dbs := []*core.Database{newDB(t), newDB(t)}
	for _, db := range dbs {
		// Primary and replica serve the same database: failover has
		// somewhere to go, which is what made one request take a whole
		// shard down.
		primary := httptest.NewServer(server.New(db).Handler())
		t.Cleanup(primary.Close)
		replica := httptest.NewServer(server.New(db, server.WithReplica(sharedDB{primary.URL})).Handler())
		t.Cleanup(replica.Close)
		cfg.Shards = append(cfg.Shards, ShardConfig{Primary: primary.URL, Replicas: []string{replica.URL}})
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
	t.Cleanup(coord.Close)
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)

	// /api/similar is answered by the owning shard alone: every
	// neighbour is every match on that shard but the shot itself.
	name := clips[0].Name
	owner := dbs[ring.Owner(name)]
	rec, _ := owner.Clip(name)
	f := rec.Shots[0].Feature
	all, err := owner.Query(varindex.Query{VarBA: f.VarBA, VarOA: f.VarOA, MeanBA: f.MeanBA})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{strconv.Itoa(math.MaxInt64), "100000000000"} {
		var matches []server.MatchJSON
		u := front.URL + "/api/similar?clip=" + name + "&shot=0&k=" + k
		if code, _ := getJSON(t, u, &matches); code != http.StatusOK {
			t.Fatalf("k=%s: status %d, want 200", k, code)
		}
		if len(matches) != len(all)-1 {
			t.Errorf("k=%s: %d matches, want all %d neighbours", k, len(matches), len(all)-1)
		}
	}

	coord.probeAll(context.Background())
	for _, sh := range coord.status().Shards {
		for _, n := range sh.Nodes {
			if !n.Up {
				t.Errorf("shard %d %s %s is down after the request: %s", sh.ID, n.Role, n.URL, n.LastError)
			}
		}
	}
	var resp server.QueryResponseJSON
	if code, _ := getJSON(t, front.URL+"/api/query?varba=25&varoa=4", &resp); code != http.StatusOK || resp.Partial {
		t.Errorf("query after the request: status %d partial %v, want a full 200", code, resp.Partial)
	}
}

// TestShardDownPartial kills one shard and checks the scatter paths
// degrade to partial answers instead of failing, and that the status
// endpoint reports the dead node.
func TestShardDownPartial(t *testing.T) {
	clips := makeClips(t, 6)
	tc := newTestCluster(t, 3, clips)
	tc.backends[1].Close() // kill shard 1

	var got server.QueryResponseJSON
	code, hdr := getJSON(t, tc.front.URL+"/api/query?varba=25&varoa=25", &got)
	if code != http.StatusOK {
		t.Fatalf("query with a dead shard: status %d, want 200", code)
	}
	if !got.Partial || hdr.Get(HeaderPartial) != "true" {
		t.Fatalf("query with a dead shard: partial=%v header=%q, want true", got.Partial, hdr.Get(HeaderPartial))
	}

	var listing []server.ClipSummary
	code, hdr = getJSON(t, tc.front.URL+"/api/clips", &listing)
	if code != http.StatusOK || hdr.Get(HeaderPartial) != "true" {
		t.Fatalf("listing with a dead shard: status %d partial=%q", code, hdr.Get(HeaderPartial))
	}

	var st StatusJSON
	if code, _ := getJSON(t, tc.front.URL+"/api/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("status endpoint: %d", code)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("status has %d shards, want 3", len(st.Shards))
	}
	if st.Shards[1].Nodes[0].Up {
		t.Error("status still reports the killed shard as up")
	}
	if st.PartialQueries == 0 {
		t.Error("status counted no partial queries after a degraded answer")
	}

	// All shards down: scatter reads answer 503, not empty-but-OK.
	tc.backends[0].Close()
	tc.backends[2].Close()
	if code, _ := getJSON(t, tc.front.URL+"/api/query?varba=25&varoa=25", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("query with every shard dead: status %d, want 503", code)
	}
}

// TestBadQueryRejectedBeforeFanout checks the coordinator validates
// queries locally instead of scattering garbage.
func TestBadQueryRejectedBeforeFanout(t *testing.T) {
	tc := newTestCluster(t, 2, makeClips(t, 2))
	if code, _ := getJSON(t, tc.front.URL+"/api/query", nil); code != http.StatusBadRequest {
		t.Fatalf("missing params: status %d, want 400", code)
	}
	if code, _ := getJSON(t, tc.front.URL+"/api/query?varba=-3&varoa=1", nil); code != http.StatusBadRequest {
		t.Fatalf("negative variance: status %d, want 400", code)
	}
	resp, err := http.Post(tc.front.URL+"/api/query/batch", "application/json",
		bytes.NewReader([]byte(`{"queries":[]}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: status %d, want 400", resp.StatusCode)
	}
}
