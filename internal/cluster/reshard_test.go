package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/store"
	"videodb/internal/synth"
	"videodb/internal/video"
)

// addBackend spins up one fresh shard backend (empty journal-less
// database behind a stock vdbserver handler) for a grow.
func addBackend(t *testing.T) (*core.Database, *httptest.Server) {
	t.Helper()
	db := newDB(t)
	ts := httptest.NewServer(server.New(db).Handler())
	t.Cleanup(ts.Close)
	return db, ts
}

// postReshard drives the HTTP endpoint and decodes the report.
func postReshard(t *testing.T, front string, body string) (*ReshardReport, int) {
	t.Helper()
	resp, err := http.Post(front+"/api/cluster/reshard", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep ReshardReport
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatalf("decoding reshard report: %v", err)
		}
	}
	return &rep, resp.StatusCode
}

// assertEquivalence checks the coordinator's merged answers are
// byte-identical to the single-node oracle over the union corpus, for
// the corpus-derived query workload.
func assertEquivalence(t *testing.T, front, oracle string, union *core.Database, when string) {
	t.Helper()
	for _, p := range queryPoints(union) {
		q := fmt.Sprintf("/api/query?varba=%g&varoa=%g", p[0], p[1])
		var want []server.MatchJSON
		if code, _ := getJSON(t, oracle+q, &want); code != http.StatusOK {
			t.Fatalf("%s: oracle status %d for %s", when, code, q)
		}
		var got server.QueryResponseJSON
		code, _ := getJSON(t, front+q, &got)
		if code != http.StatusOK {
			t.Fatalf("%s: coordinator status %d for %s", when, code, q)
		}
		if got.Partial {
			t.Fatalf("%s: partial answer for %s on a healthy cluster", when, q)
		}
		if len(want) == 0 && len(got.Matches) == 0 {
			continue
		}
		if !reflect.DeepEqual(got.Matches, want) {
			t.Fatalf("%s: merged answer differs from oracle for %s\n got: %+v\nwant: %+v",
				when, q, got.Matches, want)
		}
	}
}

// assertPlacement checks every clip lives exactly on its ring owner
// among the given shard databases — no clip missing, none duplicated.
func assertPlacement(t *testing.T, union *core.Database, shardDBs []*core.Database) {
	t.Helper()
	ring := NewRing(len(shardDBs), 0)
	for _, rec := range union.Records() {
		owner := ring.Owner(rec.Name)
		for i, db := range shardDBs {
			_, ok := db.Clip(rec.Name)
			if i == owner && !ok {
				t.Errorf("clip %q missing from its owner shard %d", rec.Name, owner)
			}
			if i != owner && ok {
				t.Errorf("clip %q duplicated on shard %d (owner is %d)", rec.Name, i, owner)
			}
		}
	}
}

// TestReshardGrowEquivalence is the migration differential on a stable
// corpus: while a 3-shard cluster grows to 4 online, concurrent
// queriers must see bit-identical answers to a never-resharded single
// node at every instant — before, during the copy, through the
// cutover, across the dual-read window, and after cleanup. Afterward
// every clip lives exactly on its new-ring owner.
func TestReshardGrowEquivalence(t *testing.T) {
	clips := makeClips(t, 8)
	tc := newTestCluster(t, 3, clips)
	oracle := httptest.NewServer(server.New(tc.union).Handler())
	t.Cleanup(oracle.Close)

	assertEquivalence(t, tc.front.URL, oracle.URL, tc.union, "before reshard")

	// Continuous differential load across the whole migration. The
	// corpus is stable, so any deviation — a partial answer, a missing
	// or duplicated match, a non-200 — is a migration bug.
	pts := queryPoints(tc.union)
	oracleAnswers := make([][]server.MatchJSON, len(pts))
	for i, p := range pts {
		q := fmt.Sprintf("/api/query?varba=%g&varoa=%g", p[0], p[1])
		if code, _ := getJSON(t, oracle.URL+q, &oracleAnswers[i]); code != http.StatusOK {
			t.Fatalf("oracle status %d", code)
		}
	}
	stopLoad := make(chan struct{})
	loadErr := make(chan error, 4)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stopLoad:
					return
				default:
				}
				k := (i*7 + w) % len(pts)
				q := fmt.Sprintf("/api/query?varba=%g&varoa=%g", pts[k][0], pts[k][1])
				resp, err := http.Get(tc.front.URL + q)
				if err != nil {
					loadErr <- fmt.Errorf("querier %d: %w", w, err)
					return
				}
				var got server.QueryResponseJSON
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil {
					loadErr <- fmt.Errorf("querier %d: decode: %w", w, err)
					return
				}
				if resp.StatusCode != http.StatusOK {
					loadErr <- fmt.Errorf("querier %d: status %d mid-reshard", w, resp.StatusCode)
					return
				}
				if got.Partial {
					loadErr <- fmt.Errorf("querier %d: partial answer mid-reshard", w)
					return
				}
				want := oracleAnswers[k]
				if len(want) == 0 && len(got.Matches) == 0 {
					continue
				}
				if !reflect.DeepEqual(got.Matches, want) {
					loadErr <- fmt.Errorf("querier %d: answer diverged from oracle mid-reshard for %s", w, q)
					return
				}
			}
		}(w)
	}

	newDB4, newTS := addBackend(t)
	rep, code := postReshard(t, tc.front.URL, fmt.Sprintf(`{"add":[{"primary":%q}]}`, newTS.URL))
	close(stopLoad)
	wg.Wait()
	select {
	case err := <-loadErr:
		t.Fatal(err)
	default:
	}
	if code != http.StatusOK {
		t.Fatalf("reshard: status %d", code)
	}
	if rep.FromShards != 3 || rep.ToShards != 4 {
		t.Fatalf("report shards %d->%d, want 3->4", rep.FromShards, rep.ToShards)
	}
	if rep.RolledBack || rep.Error != "" {
		t.Fatalf("reshard rolled back: %+v", rep)
	}
	if rep.MovedClips == 0 {
		t.Fatal("grow moved no clips (8 clips, ~1/4 of keyspace should move)")
	}
	if rep.VerifiedClips < rep.MovedClips {
		t.Errorf("verified %d of %d moved clips; every copy must be verified", rep.VerifiedClips, rep.MovedClips)
	}
	if rep.DeletedFromSource != rep.MovedClips {
		t.Errorf("cleanup deleted %d source copies, want %d (dual-read window must close)",
			rep.DeletedFromSource, rep.MovedClips)
	}
	if f := rep.MovedFraction; f <= 0 || f > 0.6 {
		t.Errorf("moved fraction %.3f, want about 0.25 for 3->4", f)
	}

	assertEquivalence(t, tc.front.URL, oracle.URL, tc.union, "after reshard")
	assertPlacement(t, tc.union, append(append([]*core.Database{}, tc.shardDBs...), newDB4))

	var st StatusJSON
	if code, _ := getJSON(t, tc.front.URL+"/api/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("status lists %d shards after grow, want 4", len(st.Shards))
	}
	if st.Reshard == nil || st.Reshard.Active || st.Reshard.Phase != "done" {
		t.Fatalf("status reshard doc = %+v, want inactive done", st.Reshard)
	}
	if st.Reshard.Report == nil || st.Reshard.Report.MovedClips != rep.MovedClips {
		t.Errorf("status-attached report differs from endpoint report")
	}
}

// TestReshardShrink drops the tail shard of a 4-shard cluster: its
// clips migrate to the survivors, answers stay equivalent to the
// oracle, and every clip lands exactly on its new-ring owner.
func TestReshardShrink(t *testing.T) {
	clips := makeClips(t, 8)
	tc := newTestCluster(t, 4, clips)
	oracle := httptest.NewServer(server.New(tc.union).Handler())
	t.Cleanup(oracle.Close)

	old := NewRing(4, 0)
	leaving := 0
	for _, c := range clips {
		if old.Owner(c.Name) == 3 {
			leaving++
		}
	}

	rep, err := tc.coord.Reshard(context.Background(), ReshardRequest{Remove: 1})
	if err != nil {
		t.Fatalf("shrink: %v (report %+v)", err, rep)
	}
	if rep.FromShards != 4 || rep.ToShards != 3 {
		t.Fatalf("report shards %d->%d, want 4->3", rep.FromShards, rep.ToShards)
	}
	if rep.MovedClips != leaving {
		t.Errorf("shrink moved %d clips, want the departing shard's %d", rep.MovedClips, leaving)
	}
	if rep.DeletedFromSource != 0 {
		t.Errorf("shrink deleted %d clips from the leaving shard; removed shards are left intact", rep.DeletedFromSource)
	}

	assertEquivalence(t, tc.front.URL, oracle.URL, tc.union, "after shrink")
	assertPlacement(t, tc.union, tc.shardDBs[:3])

	// The departing shard keeps its copies (it is no longer queried);
	// an operator can wipe or repurpose it at leisure.
	if got := len(tc.shardDBs[3].Clips()); got != leaving {
		t.Errorf("leaving shard has %d clips, want its original %d", got, leaving)
	}
}

// TestReshardUnderConcurrentWrites migrates while ingests and deletes
// flow through the coordinator: every write must succeed (stalling
// briefly at the cutover barrier, never failing), and after quiesce
// the cluster must answer bit-identically to a single node holding the
// expected final corpus.
func TestReshardUnderConcurrentWrites(t *testing.T) {
	initial := makeClips(t, 6)
	tc := newTestCluster(t, 3, initial)
	extras := make([]*video.Clip, 0, 8)
	for _, c := range makeClips(t, 14)[6:] {
		extras = append(extras, c)
	}
	victims := []string{initial[1].Name, initial[4].Name}

	writeErr := make(chan error, len(extras)+len(victims))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, clip := range extras {
			var buf bytes.Buffer
			if err := store.WriteClip(&buf, clip); err != nil {
				writeErr <- err
				return
			}
			resp, err := http.Post(tc.front.URL+"/api/clips?name="+clip.Name,
				"application/octet-stream", bytes.NewReader(buf.Bytes()))
			if err != nil {
				writeErr <- fmt.Errorf("ingest %s: %w", clip.Name, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusCreated {
				writeErr <- fmt.Errorf("ingest %s: status %d", clip.Name, resp.StatusCode)
				return
			}
			if i < len(victims) {
				req, _ := http.NewRequest(http.MethodDelete, tc.front.URL+"/api/clips/"+victims[i], nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					writeErr <- fmt.Errorf("delete %s: %w", victims[i], err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					writeErr <- fmt.Errorf("delete %s: status %d", victims[i], resp.StatusCode)
					return
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	newShardDB, newTS := addBackend(t)
	rep, code := postReshard(t, tc.front.URL, fmt.Sprintf(`{"add":[{"primary":%q}]}`, newTS.URL))
	wg.Wait()
	close(writeErr)
	for err := range writeErr {
		t.Fatal(err)
	}
	if code != http.StatusOK || rep.Error != "" {
		t.Fatalf("reshard under writes: status %d report %+v", code, rep)
	}

	// Build the expected final corpus: initial minus victims plus extras.
	oracleDB := newDB(t)
	gone := map[string]bool{victims[0]: true, victims[1]: true}
	for _, c := range initial {
		if !gone[c.Name] {
			if _, err := oracleDB.Ingest(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range extras {
		if _, err := oracleDB.Ingest(c); err != nil {
			t.Fatal(err)
		}
	}
	oracle := httptest.NewServer(server.New(oracleDB).Handler())
	t.Cleanup(oracle.Close)

	// The reshard has returned and all writes are acknowledged, but a
	// write that raced the cleanup phase may leave a source copy for a
	// moment; all such copies are deleted before Reshard returns, so
	// the state is already quiescent.
	var listing []server.ClipSummary
	if code, _ := getJSON(t, tc.front.URL+"/api/clips", &listing); code != http.StatusOK {
		t.Fatalf("final listing: %d", code)
	}
	if want := len(initial) - len(victims) + len(extras); len(listing) != want {
		names := make([]string, len(listing))
		for i, c := range listing {
			names[i] = c.Name
		}
		t.Fatalf("final corpus has %d clips, want %d: %v", len(listing), want, names)
	}
	assertEquivalence(t, tc.front.URL, oracle.URL, oracleDB, "after reshard under writes")
	assertPlacement(t, oracleDB, append(append([]*core.Database{}, tc.shardDBs...), newShardDB))
}

// TestReshardValidation pins the request contract: malformed bodies
// and impossible memberships are rejected up front, and only one
// reshard runs at a time.
func TestReshardValidation(t *testing.T) {
	tc := newTestCluster(t, 2, makeClips(t, 2))
	for _, bad := range []string{
		`{}`,
		`{"add":[{"primary":"http://x"}],"remove":1}`,
		`{"remove":2}`,
		`{"remove":5}`,
		`{"add":[{"primary":""}]}`,
		`not json`,
	} {
		if _, code := postReshard(t, tc.front.URL, bad); code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, code)
		}
	}

	// Single-flight: while one reshard runs, a second answers 409.
	if err := tc.coord.reshard.begin(2, 3); err != nil {
		t.Fatal(err)
	}
	_, code := postReshard(t, tc.front.URL, `{"remove":1}`)
	tc.coord.reshard.finish(&ReshardReport{})
	if code != http.StatusConflict {
		t.Errorf("concurrent reshard: status %d, want 409", code)
	}
	if _, err := tc.coord.Reshard(context.Background(), ReshardRequest{Remove: 1}); err != nil {
		t.Fatalf("reshard after the guard released: %v", err)
	}
}

// TestReshardRollbackOnDeadDestination points a grow at an unreachable
// new shard: the reshard must fail fast, keep the old topology, and
// leave the corpus untouched.
func TestReshardRollbackOnDeadDestination(t *testing.T) {
	clips := makeClips(t, 4)
	tc := newTestCluster(t, 2, clips)
	oracle := httptest.NewServer(server.New(tc.union).Handler())
	t.Cleanup(oracle.Close)

	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()
	rep, code := postReshard(t, tc.front.URL, fmt.Sprintf(`{"add":[{"primary":%q}]}`, dead.URL))
	if code != http.StatusInternalServerError {
		t.Fatalf("reshard to a dead shard: status %d, want 500", code)
	}
	_ = rep

	var st StatusJSON
	if code, _ := getJSON(t, tc.front.URL+"/api/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("failed reshard changed membership: %d shards, want 2", len(st.Shards))
	}
	if st.Reshard == nil || st.Reshard.Phase != "failed" {
		t.Fatalf("status reshard doc = %+v, want failed", st.Reshard)
	}
	assertEquivalence(t, tc.front.URL, oracle.URL, tc.union, "after failed reshard")
	assertPlacement(t, tc.union, tc.shardDBs)
}

// TestReshardCutoverDelta pins the cutover's delta on a 3->4 grow,
// without sleeps: the old shards' handlers change the source databases
// exactly when the cutover lists the corpus (each shard's second
// GET /api/clips; the copy phase's listing is the first). Before that
// listing is served, moved clip A is deleted, moved clip B is
// re-written with different features and a new moved clip C is
// ingested; right after its owner serves the listing, moved clip D is
// deleted, so D is listed but its export answers 404. The delta must
// move exactly those four, and the grown cluster must hold the corpus
// as it stands after them.
func TestReshardCutoverDelta(t *testing.T) {
	oldRing := NewRing(3, 0)
	diff := oldRing.Diff(NewRing(4, 0))
	// The first four moved names are A, B, C and D; the first two
	// unmoved ones stay on their shard throughout.
	var moved []string
	var initial []*video.Clip
	for i, unmoved := 0, 0; len(moved) < 4 || unmoved < 2; i++ {
		name := fmt.Sprintf("clip-%02d", i)
		switch {
		case diff.Moved(name) && len(moved) < 4:
			moved = append(moved, name)
			if len(moved) != 3 {
				initial = append(initial, makeClip(t, synth.GenreDrama, name, uint64(900+i)))
			}
		case !diff.Moved(name) && unmoved < 2:
			unmoved++
			initial = append(initial, makeClip(t, synth.GenreCartoon, name, uint64(900+i)))
		}
	}
	a, b, d := moved[0], moved[1], moved[3]
	c := makeClip(t, synth.GenreDrama, moved[2], 3)
	rewrite := makeClip(t, synth.GenreNews, b, 7)

	var tc *testCluster
	var listings [3]atomic.Int32
	remove := func(name string) {
		if err := tc.shardDBs[oldRing.Owner(name)].Remove(name); err != nil {
			t.Errorf("removing %s from its source: %v", name, err)
		}
	}
	ingest := func(clip *video.Clip) {
		if _, err := tc.shardDBs[oldRing.Owner(clip.Name)].Ingest(clip); err != nil {
			t.Errorf("ingesting %s into its source: %v", clip.Name, err)
		}
	}
	tc = newWrappedCluster(t, 3, initial, func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			cutover := r.Method == http.MethodGet && r.URL.Path == "/api/clips" && listings[i].Add(1) == 2
			if cutover && i == 0 {
				remove(a)
				remove(b)
				ingest(rewrite)
				ingest(c)
			}
			h.ServeHTTP(w, r)
			if cutover && i == oldRing.Owner(d) {
				remove(d)
			}
		})
	})

	destDB, destTS := addBackend(t)
	rep, err := tc.coord.Reshard(context.Background(), ReshardRequest{Add: []ReshardShard{{Primary: destTS.URL}}})
	if err != nil {
		t.Fatalf("reshard: %v (report %+v)", err, rep)
	}
	if got := listings[0].Load(); got != 2 {
		t.Fatalf("shard 0 served %d listings, want 2 (copy phase and cutover)", got)
	}
	if rep.DeltaResynced != 4 {
		t.Errorf("cutover delta moved %d clips, want 4 (A dropped, B re-copied, C copied, D dropped)", rep.DeltaResynced)
	}

	// The oracle is the union node taken through the same changes.
	oracleDB := tc.union
	old, _ := oracleDB.Clip(b)
	for _, name := range []string{a, b, d} {
		if err := oracleDB.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	for _, clip := range []*video.Clip{rewrite, c} {
		if _, err := oracleDB.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	oracle := httptest.NewServer(server.New(oracleDB).Handler())
	t.Cleanup(oracle.Close)

	for _, name := range []string{a, d} {
		if _, ok := destDB.Clip(name); ok {
			t.Errorf("destination holds %s, deleted from its source during the migration", name)
		}
	}
	if _, ok := destDB.Clip(c.Name); !ok {
		t.Errorf("destination lacks %s, ingested during the migration", c.Name)
	}
	got, ok := destDB.Clip(b)
	want, _ := oracleDB.Clip(b)
	if reflect.DeepEqual(old.Shots, want.Shots) {
		t.Fatal("the re-write of B did not change its shots")
	}
	if !ok || !reflect.DeepEqual(got.Shots, want.Shots) {
		t.Errorf("destination does not hold the re-written %s", b)
	}
	assertPlacement(t, oracleDB, append(append([]*core.Database{}, tc.shardDBs...), destDB))
	assertEquivalence(t, tc.front.URL, oracle.URL, oracleDB, "after a cutover delta")
}

// TestReshardShrinkReplicaSeesImports: a reshard's imports are writes
// acknowledged through the coordinator, so their journal positions
// bind the staleness bound like any other write's. After a 2→1 shrink,
// shard 0's replica — caught up at its last probe, then polling hourly,
// so it never applies the imports — must serve no read at bound 0:
// every answer holds every moved clip.
func TestReshardShrinkReplicaSeesImports(t *testing.T) {
	clips := makeClips(t, 8)
	ring := NewRing(2, 0)
	db0, _, p0 := newPrimary(t)
	db1, _, p1 := newPrimary(t)
	var moved []string
	for _, clip := range clips {
		db := db0
		if ring.Owner(clip.Name) == 1 {
			db = db1
			moved = append(moved, clip.Name)
		}
		if _, err := db.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	if len(moved) == 0 || len(moved) == len(clips) {
		t.Fatalf("fixture: %d of %d clips on shard 1", len(moved), len(clips))
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, p0.URL, WithReplicaInterval(time.Hour))
	defer rep.Close()
	rts := httptest.NewServer(server.New(rdb, server.WithReplica(rep)).Handler())
	t.Cleanup(rts.Close)
	waitFor(t, "replica bootstrap", func() bool {
		return rep.Stats().LagBytes == 0 && len(rdb.Clips()) == len(clips)-len(moved)
	})

	c, err := New(Config{
		Shards: []ShardConfig{
			{Primary: p0.URL, Replicas: []string{rts.URL}},
			{Primary: p1.URL},
		},
		ReplicaReads:   true,
		StalenessBound: 0,
		ProbeInterval:  time.Hour,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)
	c.probeAll(testContext(t))
	if sh := c.topo.Load().shards[0]; !sh.eligibleForRead(sh.nodes[1], 0) {
		t.Fatal("fixture: the caught-up replica is not eligible before the reshard")
	}

	if rp, err := c.Reshard(testContext(t), ReshardRequest{Remove: 1}); err != nil || rp.MovedClips != len(moved) {
		t.Fatalf("reshard: %+v, %v; want %d moved clips", rp, err, len(moved))
	}
	// Round-robin hands every other eligible read to the replica, so
	// eight reads of each kind reach it if it is eligible.
	for i := 0; i < 8; i++ {
		var listing []server.ClipSummary
		if code, _ := getJSON(t, front.URL+"/api/clips", &listing); code != http.StatusOK {
			t.Fatalf("listing %d: status %d", i, code)
		}
		have := make(map[string]bool, len(listing))
		for _, cl := range listing {
			have[cl.Name] = true
		}
		for _, name := range moved {
			if !have[name] {
				t.Fatalf("listing %d after the reshard lacks moved clip %q (%d clips listed)", i, name, len(listing))
			}
		}
	}
	for _, name := range moved {
		rec, _ := db1.Clip(name)
		f := rec.Shots[0].Feature
		for i := 0; i < 8; i++ {
			var got server.QueryResponseJSON
			q := fmt.Sprintf("/api/query?varba=%g&varoa=%g", f.VarBA, f.VarOA)
			if code, _ := getJSON(t, front.URL+q, &got); code != http.StatusOK {
				t.Fatalf("query %s: status %d", q, code)
			}
			if !slices.ContainsFunc(got.Matches, func(m server.MatchJSON) bool { return m.Clip == name }) {
				t.Fatalf("query %d at moved clip %q's first shot lacks it after the reshard", i, name)
			}
		}
	}
}
