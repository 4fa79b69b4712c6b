package server_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"videodb/internal/cluster"
	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/vtest"
	"videodb/internal/wal"
)

// TestHealthDocument pins GET /api/health in every state a node can
// report: the keys, their values, and the bytes, which must be exactly
// what encoding/json writes for the same document as a map (keys in
// sorted order). The coordinator's replica-lag computation and every
// operator dashboard read this document.
func TestHealthDocument(t *testing.T) {
	t.Run("bare in-memory node", func(t *testing.T) {
		srv := serve(t, server.New(openDB(t)))
		checkHealth(t, srv.URL, map[string]any{
			"status": "ok", "clips": 0.0, "shots": 0.0, "epoch": 0.0,
		})
	})

	t.Run("journalled primary", func(t *testing.T) {
		db := openDB(t)
		j := openJournal(t, db)
		srv := serve(t, server.New(db, server.WithJournal(j)))
		checkHealth(t, srv.URL, map[string]any{
			"status": "ok", "clips": 0.0, "shots": 0.0, "epoch": 0.0,
			"walGen": j.Gen(), "walSize": 6.0,
		})
		ingest(t, db, "one")
		checkHealth(t, srv.URL, map[string]any{
			"status": "ok", "clips": 1.0, "shots": 2.0, "epoch": 1.0,
			"walGen": j.Gen(), "walSize": float64(j.Size()),
		})
		if j.Size() <= 6 {
			t.Fatalf("journal size %d after an ingest", j.Size())
		}
	})

	t.Run("segment-store node", func(t *testing.T) {
		st, err := segstore.Open(t.TempDir(), segstore.Options{Core: core.DefaultOptions(), Policy: wal.PolicyAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		for _, name := range []string{"cold", "gone"} {
			ingest(t, st.DB(), name)
		}
		if _, err := st.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := st.DB().Remove("gone"); err != nil {
			t.Fatal(err)
		}
		ingest(t, st.DB(), "fresh")
		srv := serve(t, server.New(st.DB(),
			server.WithStorage(st), server.WithJournal(st.Journal()), server.WithRecoveryInfo(st.Replay())))
		j := st.Journal()
		checkHealth(t, srv.URL, map[string]any{
			"status": "ok", "clips": 2.0, "shots": 4.0, "epoch": 6.0,
			"walGen": j.Gen(), "walSize": float64(j.Size()),
			"storage": map[string]any{
				"segments": 1.0, "segmentBytes": float64(st.Stats().SegmentBytes), "maxGeneration": 1.0,
				"memtableClips": 1.0, "coldClips": 1.0,
			},
		})
	})

	t.Run("replica before its first bootstrap", func(t *testing.T) {
		down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			http.Error(w, "unavailable", http.StatusServiceUnavailable)
		}))
		t.Cleanup(down.Close)
		srv, rep := replicaServer(t, down.URL)
		waitFor(t, "a failed bootstrap", func() bool { return rep.Stats().LastError != "" })
		checkHealth(t, srv.URL, map[string]any{
			"status": "ok", "clips": 0.0, "shots": 0.0, "epoch": 0.0,
			"readOnly": true, "role": "replica of " + down.URL,
			"replicationPrimary": down.URL, "replicationCut": 0.0, "replicationGen": "",
			"replicationLagBytes": -1.0, "replicationBootstraps": 0.0,
			"replicationError": "bootstrap: primary answered 503: unavailable\n",
		})
	})

	t.Run("replica caught up", func(t *testing.T) {
		db := openDB(t)
		j := openJournal(t, db)
		primary := serve(t, server.New(db, server.WithJournal(j)))
		ingest(t, db, "one")
		srv, rep := replicaServer(t, primary.URL)
		waitFor(t, "catch-up", func() bool { st := rep.Stats(); return st.Bootstraps == 1 && st.LagBytes == 0 })
		checkHealth(t, srv.URL, map[string]any{
			"status": "ok", "clips": 1.0, "shots": 2.0, "epoch": 1.0,
			"readOnly": true, "role": "replica of " + primary.URL,
			"replicationPrimary": primary.URL, "replicationCut": float64(j.Size()), "replicationGen": j.Gen(),
			"replicationLagBytes": 0.0, "replicationBootstraps": 1.0,
		})
	})
}

// checkHealth fetches base's /api/health and compares it to want, then
// checks the body is byte for byte the encoding of want as a map.
func checkHealth(t *testing.T, base string, want map[string]any) {
	t.Helper()
	resp, err := http.Get(base + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("health: status %d, %v", resp.StatusCode, err)
	}
	var got map[string]any
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("health document:\n got %v\nwant %v", got, want)
	}
	canon, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(canon)+"\n" {
		t.Fatalf("health bytes:\n got %s\nwant %s", strings.TrimSpace(string(body)), canon)
	}
}

func openDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func openJournal(t *testing.T, db *core.Database) *wal.ClipJournal {
	t.Helper()
	j, _, err := wal.RecoverAndOpen(db, filepath.Join(t.TempDir(), "health.wal"), wal.PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// ingest adds a two-shot clip named name.
func ingest(t *testing.T, db *core.Database, name string) {
	t.Helper()
	if _, err := db.Ingest(vtest.TwoShotClip(name, 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
}

func serve(t *testing.T, s *server.Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// replicaServer replicates primary into a fresh database and serves it
// the way vdbserver -replica-of does.
func replicaServer(t *testing.T, primary string) (*httptest.Server, *cluster.Replica) {
	t.Helper()
	db := openDB(t)
	rep := cluster.StartReplica(db, primary, cluster.WithReplicaInterval(10*time.Millisecond))
	t.Cleanup(rep.Close)
	return serve(t, server.New(db, server.WithReplica(rep))), rep
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
