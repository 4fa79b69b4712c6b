package cluster

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/varindex"
	"videodb/internal/wal"
)

// newPrimary builds a journaled database behind an HTTP server — the
// shape a cluster shard primary runs in.
func newPrimary(t *testing.T) (*core.Database, *wal.ClipJournal, *httptest.Server) {
	t.Helper()
	db := newDB(t)
	j, res, err := wal.RecoverAndOpen(db, filepath.Join(t.TempDir(), "p.wal"), wal.PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Damaged {
		t.Fatalf("fresh journal damaged: %s", res.Reason)
	}
	t.Cleanup(func() { _ = j.Close() })
	ts := httptest.NewServer(server.New(db, server.WithJournal(j)).Handler())
	t.Cleanup(ts.Close)
	return db, j, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// sameRecords compares two databases' clip records by name, frame
// count, and every shot's feature vector — the state the query path
// answers from.
func sameRecords(a, b *core.Database) error {
	ra, rb := a.Records(), b.Records()
	if len(ra) != len(rb) {
		return fmt.Errorf("clip counts differ: %d vs %d", len(ra), len(rb))
	}
	byName := make(map[string]*core.ClipRecord, len(rb))
	for _, r := range rb {
		byName[r.Name] = r
	}
	for _, r := range ra {
		o, ok := byName[r.Name]
		if !ok {
			return fmt.Errorf("clip %q missing on replica", r.Name)
		}
		if r.Frames != o.Frames || r.FPS != o.FPS || len(r.Shots) != len(o.Shots) {
			return fmt.Errorf("clip %q differs: frames %d/%d shots %d/%d",
				r.Name, r.Frames, o.Frames, len(r.Shots), len(o.Shots))
		}
		for i := range r.Shots {
			fa, fb := r.Shots[i].Feature, o.Shots[i].Feature
			if fa.VarBA != fb.VarBA || fa.VarOA != fb.VarOA {
				return fmt.Errorf("clip %q shot %d feature differs: (%g,%g) vs (%g,%g)",
					r.Name, i, fa.VarBA, fa.VarOA, fb.VarBA, fb.VarOA)
			}
		}
	}
	return nil
}

// TestReplicaCatchUp is the replication differential: a replica that
// bootstraps mid-stream and tails the WAL converges to the primary's
// exact records through ingests and deletes. Run under -race, it also
// exercises concurrent ApplySnapshot/ApplyRecord against live reads.
func TestReplicaCatchUp(t *testing.T) {
	db, _, ts := newPrimary(t)
	clips := makeClips(t, 4)

	// Two clips before the replica exists: they arrive via bootstrap.
	for _, c := range clips[:2] {
		if _, err := db.Ingest(c); err != nil {
			t.Fatal(err)
		}
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	waitFor(t, "bootstrap", func() bool { return rep.Stats().Bootstraps >= 1 && len(rdb.Clips()) == 2 })

	// Two more plus a delete after: they arrive via WAL shipping.
	for _, c := range clips[2:] {
		if _, err := db.Ingest(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Remove(clips[0].Name); err != nil {
		t.Fatal(err)
	}
	// LagBytes alone is not a convergence signal — it measures distance
	// to the primary size seen at the last poll — so wait on content.
	waitFor(t, "WAL catch-up", func() bool { return sameRecords(db, rdb) == nil })
	if st := rep.Stats(); st.Applied < 3 {
		t.Errorf("replica applied %d records, want >= 3 (2 ingests + 1 delete)", st.Applied)
	}
}

// TestReplicaLagUnknownWithoutStream: a replica that has never
// bootstrapped holds no stream position, so its lag is unknown (-1) —
// not 0, which would read as "caught up" in /api/health and
// /api/metrics while its primary refuses every request.
func TestReplicaLagUnknownWithoutStream(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(down.Close)
	rdb := newDB(t)
	rep := StartReplica(rdb, down.URL, WithReplicaInterval(10*time.Millisecond))
	defer rep.Close()
	rts := httptest.NewServer(server.New(rdb, server.WithReplica(rep)).Handler())
	defer rts.Close()
	waitFor(t, "a failed bootstrap", func() bool { return rep.Stats().LastError != "" })

	if st := rep.Stats(); st.LagBytes != -1 || st.Gen != "" {
		t.Fatalf("replica without a stream reports lag %d (gen %q), want -1", st.LagBytes, st.Gen)
	}
	var doc server.HealthJSON
	getJSON(t, rts.URL+"/api/health", &doc)
	if doc.ReplicationStatus == nil || doc.LagBytes != -1 {
		t.Errorf("health replicationLagBytes = %+v, want -1", doc.ReplicationStatus)
	}
	resp, err := http.Get(rts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\nvideodb_replica_lag_bytes -1\n") {
		t.Errorf("videodb_replica_lag_bytes is not -1 in:\n%s", metrics)
	}
}

// TestReplicaSurvivesRotation rotates the primary's journal (the
// post-snapshot flush) under a caught-up replica: positions survive the
// rotation, so the replica tails on from its cut without a second
// bootstrap and converges.
func TestReplicaSurvivesRotation(t *testing.T) {
	db, j, ts := newPrimary(t)
	clips := makeClips(t, 3)
	if _, err := db.Ingest(clips[0]); err != nil {
		t.Fatal(err)
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	waitFor(t, "initial catch-up", func() bool { return len(rdb.Clips()) == 1 && rep.Stats().LagBytes == 0 })

	// Snapshot-style rotation: capture the cut and rotate to it. The
	// replica's position is the cut itself, which the journal keeps.
	snap := db.BeginSnapshot()
	cut, ok := snap.JournalCut()
	if !ok {
		t.Fatal("no journal cut captured")
	}
	if err := j.RotateTo(cut); err != nil {
		t.Fatal(err)
	}
	for _, c := range clips[1:] {
		if _, err := db.Ingest(c); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "re-converge after rotation", func() bool {
		return rep.Stats().Bootstraps == 1 && sameRecords(db, rdb) == nil
	})
}

// TestReplicaServerReadOnly runs the replica behind the full vdbserver
// wiring (server.WithReplica) and checks writes are refused while reads
// and health flow.
func TestReplicaServerReadOnly(t *testing.T) {
	db, _, ts := newPrimary(t)
	if _, err := db.Ingest(makeClips(t, 1)[0]); err != nil {
		t.Fatal(err)
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	rts := httptest.NewServer(server.New(rdb, server.WithReplica(rep)).Handler())
	defer rts.Close()
	waitFor(t, "replica catch-up", func() bool { return len(rdb.Clips()) == 1 })

	req, _ := http.NewRequest(http.MethodDelete, rts.URL+"/api/clips/clip-00", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("delete on replica: status %d, want 403", resp.StatusCode)
	}

	var health map[string]any
	if code, _ := getJSON(t, rts.URL+"/api/health", &health); code != http.StatusOK {
		t.Fatalf("replica health: status %d", code)
	}
	if health["readOnly"] != true {
		t.Error("replica health does not report readOnly")
	}
	if _, ok := health["replicationCut"]; !ok {
		t.Error("replica health misses replicationCut")
	}
	var matches []server.MatchJSON
	if code, _ := getJSON(t, rts.URL+"/api/query?varba=25&varoa=25", &matches); code != http.StatusOK {
		t.Fatalf("query on replica: status %d", code)
	}
}

// TestReplicaPromotionOnPrimaryDeath is the failover path: a shard
// whose primary dies keeps answering scatter reads through its replica
// — not partial — while a shard with no replica goes partial.
func TestReplicaPromotionOnPrimaryDeath(t *testing.T) {
	db, _, ts := newPrimary(t)
	clips := makeClips(t, 3)
	for _, c := range clips {
		if _, err := db.Ingest(c); err != nil {
			t.Fatal(err)
		}
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	rts := httptest.NewServer(server.New(rdb, server.WithReplica(rep)).Handler())
	defer rts.Close()
	waitFor(t, "replica catch-up", func() bool {
		return len(rdb.Clips()) == len(clips) && rep.Stats().LagBytes == 0
	})

	coord, err := New(Config{
		Shards:        []ShardConfig{{Primary: ts.URL, Replicas: []string{rts.URL}}},
		ProbeInterval: 100 * time.Millisecond,
		Timeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	var before server.QueryResponseJSON
	if code, _ := getJSON(t, front.URL+"/api/query?varba=25&varoa=25", &before); code != http.StatusOK {
		t.Fatalf("query before failover: status %d", code)
	}

	ts.Close() // primary dies
	var after server.QueryResponseJSON
	code, hdr := getJSON(t, front.URL+"/api/query?varba=25&varoa=25", &after)
	if code != http.StatusOK {
		t.Fatalf("query after primary death: status %d, want 200 via replica", code)
	}
	if after.Partial || hdr.Get(HeaderPartial) == "true" {
		t.Fatal("answer went partial although a caught-up replica was available")
	}
	if len(after.Matches) != len(before.Matches) {
		t.Fatalf("replica answered %d matches, primary answered %d", len(after.Matches), len(before.Matches))
	}
}

// sameAnswers queries both databases at every shot's own feature point
// and compares the answers entry for entry: clip, shot, frame range,
// variances, and the scene each match resolves to.
func sameAnswers(a, b *core.Database) error {
	for _, rec := range a.Records() {
		for k, sr := range rec.Shots {
			q := varindex.Query{VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA}
			ma, err := a.QueryUncached(q, a.Options().Query)
			if err != nil {
				return err
			}
			mb, err := b.QueryUncached(q, b.Options().Query)
			if err != nil {
				return err
			}
			if len(ma) != len(mb) {
				return fmt.Errorf("%s/%d: %d matches vs %d", rec.Name, k, len(ma), len(mb))
			}
			for i := range ma {
				if ma[i].Entry != mb[i].Entry {
					return fmt.Errorf("%s/%d match %d: %+v vs %+v", rec.Name, k, i, ma[i].Entry, mb[i].Entry)
				}
				if (ma[i].Scene == nil) != (mb[i].Scene == nil) ||
					ma[i].Scene != nil && ma[i].Scene.Name() != mb[i].Scene.Name() {
					return fmt.Errorf("%s/%d match %d: scenes differ", rec.Name, k, i)
				}
			}
		}
	}
	return nil
}

// TestReplicaOfSegmentStorePrimary bootstraps a replica from a primary
// running the segment store with clips in every state a store holds
// them: cold in a flushed segment, tombstoned since, and fresh in the
// memtable. The bootstrap body is written column-wise from the segment
// readers, so it must leave the primary's cold-clip cache exactly as it
// found it; and a flush on the primary mid-tail — which rotates the
// journal but moves no position — must leave the replica tailing on
// from its cut, converging without a second bootstrap.
func TestReplicaOfSegmentStorePrimary(t *testing.T) {
	st, err := segstore.Open(t.TempDir(), segstore.Options{
		Core: core.DefaultOptions(), Policy: wal.PolicyAlways, ClipCache: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	db := st.DB()
	clips := makeClips(t, 6)
	for _, c := range clips[:4] {
		if _, err := db.Ingest(c); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Remove(clips[1].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(clips[4]); err != nil {
		t.Fatal(err)
	}
	if db.ColdClips() != 3 || db.MemtableClips() != 1 || db.PendingTombstones() != 1 {
		t.Fatalf("fixture: %d cold, %d memtable, %d tombstones",
			db.ColdClips(), db.MemtableClips(), db.PendingTombstones())
	}
	ts := httptest.NewServer(server.New(db,
		server.WithStorage(st), server.WithJournal(st.Journal())).Handler())
	t.Cleanup(ts.Close)

	cacheBefore := db.ClipCacheStats()
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	waitFor(t, "bootstrap from the store", func() bool {
		return rep.Stats().Bootstraps == 1 && len(rdb.Clips()) == 4
	})
	if after := db.ClipCacheStats(); after.Hits != cacheBefore.Hits || after.Misses != cacheBefore.Misses {
		t.Fatalf("bootstrap went through the primary's clip cache: %+v -> %+v", cacheBefore, after)
	}
	if _, ok := rdb.Clip(clips[1].Name); ok {
		t.Fatal("tombstoned clip reached the replica")
	}
	if err := sameAnswers(db, rdb); err != nil {
		t.Fatalf("after bootstrap: %v", err)
	}

	// Tail one write, then flush under the replica's feet.
	if _, err := db.Ingest(clips[5]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tail the memtable write", func() bool { return len(rdb.Clips()) == 5 })
	if res, err := st.Flush(); err != nil || !res.Rotated {
		t.Fatalf("mid-tail flush: %+v, %v", res, err)
	}
	waitFor(t, "tail on after the flush rotated the journal", func() bool {
		return rep.Stats().Bootstraps == 1 && rep.Stats().LagBytes == 0 && len(rdb.Clips()) == 5
	})
	if err := sameAnswers(db, rdb); err != nil {
		t.Fatalf("after the flush: %v", err)
	}
	if err := sameRecords(db, rdb); err != nil {
		t.Fatalf("after the flush: %v", err)
	}
}

// TestReplicaFlushBehindCutRebootstraps: a replica whose cut lies in a
// journal prefix the primary has flushed away cannot tail on — those
// records exist only in a segment now. Its next poll answers 409 and
// it re-bootstraps to the primary's exact records.
func TestReplicaFlushBehindCutRebootstraps(t *testing.T) {
	db := newDB(t)
	j, _, err := wal.RecoverAndOpen(db, filepath.Join(t.TempDir(), "p.wal"), wal.PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	// held makes the primary refuse WAL polls, so the replica falls
	// behind on demand.
	var held atomic.Bool
	h := server.New(db, server.WithJournal(j)).Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if held.Load() && r.URL.Path == "/api/replication/wal" {
			http.Error(w, "held", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	clips := makeClips(t, 3)
	if _, err := db.Ingest(clips[0]); err != nil {
		t.Fatal(err)
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	waitFor(t, "initial catch-up", func() bool { return len(rdb.Clips()) == 1 && rep.Stats().LagBytes == 0 })
	behind := rep.Stats().Cut

	held.Store(true)
	if _, err := db.Ingest(clips[1]); err != nil {
		t.Fatal(err)
	}
	cut, _ := db.BeginSnapshot().JournalCut()
	if err := j.RotateTo(cut); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(clips[2]); err != nil {
		t.Fatal(err)
	}
	if _, _, err := j.TailFrom(behind, 1<<20); !errors.Is(err, wal.ErrBadCut) {
		t.Fatalf("TailFrom(%d) after a flush to %d: %v, want ErrBadCut", behind, cut, err)
	}
	held.Store(false)
	waitFor(t, "re-bootstrap after the flush passed the replica's cut", func() bool {
		return rep.Stats().Bootstraps == 2 && rep.Stats().LagBytes == 0 && sameRecords(db, rdb) == nil
	})
}

// TestReplicaLagKnownAcrossFlush: a flush on a segment-store primary
// moves no journal position, so a replica tailing through it keeps a
// known lag (never -1) and one bootstrap, and at bound 0 the
// coordinator keeps it eligible for reads once it has caught up.
func TestReplicaLagKnownAcrossFlush(t *testing.T) {
	st, err := segstore.Open(t.TempDir(), segstore.Options{Core: core.DefaultOptions(), Policy: wal.PolicyAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	db := st.DB()
	ts := httptest.NewServer(server.New(db,
		server.WithStorage(st), server.WithJournal(st.Journal())).Handler())
	t.Cleanup(ts.Close)
	clips := makeClips(t, 3)
	if _, err := db.Ingest(clips[0]); err != nil {
		t.Fatal(err)
	}
	rdb := newDB(t)
	rep := StartReplica(rdb, ts.URL, WithReplicaInterval(20*time.Millisecond))
	defer rep.Close()
	rts := httptest.NewServer(server.New(rdb, server.WithReplica(rep)).Handler())
	t.Cleanup(rts.Close)
	waitFor(t, "initial catch-up", func() bool { return len(rdb.Clips()) == 1 && rep.Stats().LagBytes == 0 })

	c, err := New(Config{
		Shards:         []ShardConfig{{Primary: ts.URL, Replicas: []string{rts.URL}}},
		ReplicaReads:   true,
		StalenessBound: 0,
		ProbeInterval:  time.Hour,
		Timeout:        5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	sh := c.topo.Load().shards[0]
	replica := sh.nodes[1]
	eligible := func(when string) {
		t.Helper()
		c.probeAll(testContext(t))
		if lag, ok := sh.replicaLag(replica); !ok || lag != 0 || !sh.eligibleForRead(replica, 0) {
			t.Fatalf("%s: replica lag (%d, %v), eligible %v; want a known lag 0 and eligible",
				when, lag, ok, sh.eligibleForRead(replica, 0))
		}
	}
	eligible("before the flush")

	// Sample the replica's own lag throughout the flush and the writes
	// around it.
	stop := make(chan struct{})
	minLag := make(chan int64)
	go func() {
		low := int64(1 << 62)
		for {
			low = min(low, rep.Stats().LagBytes)
			select {
			case <-stop:
				minLag <- low
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	if _, err := db.Ingest(clips[1]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tail the memtable write", func() bool { return len(rdb.Clips()) == 2 && rep.Stats().LagBytes == 0 })
	if res, err := st.Flush(); err != nil || !res.Rotated {
		t.Fatalf("flush: %+v, %v", res, err)
	}
	if _, err := db.Ingest(clips[2]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "tail the write after the flush", func() bool { return len(rdb.Clips()) == 3 && rep.Stats().LagBytes == 0 })
	close(stop)
	if low := <-minLag; low < 0 {
		t.Fatalf("replica lag read %d across the flush, want always known", low)
	}
	if b := rep.Stats().Bootstraps; b != 1 {
		t.Fatalf("replica bootstrapped %d times across the flush, want 1", b)
	}
	if err := sameRecords(db, rdb); err != nil {
		t.Fatal(err)
	}
	eligible("after the flush")
}
