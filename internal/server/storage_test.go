package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"videodb/internal/vtest"
)

// The segment-backed server lifecycle: POST /api/snapshot flushes an
// immutable segment, a DELETE turns into a tombstone on the next flush,
// and a restart serves the same clips back from mmap-ed segments.
// Health and metrics expose the storage tier throughout.
func TestServerSegmentStorage(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	for i, name := range []string{"kept", "doomed"} {
		if _, err := st.DB().Ingest(vtest.TwoShotClip(name, uint64(i*2+1), uint64(i*2+2), 8, 16)); err != nil {
			t.Fatal(err)
		}
	}
	srv := storeServer(st)

	flush := func() map[string]any {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/snapshot", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot returned %d", resp.StatusCode)
		}
		var doc map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	doc := flush()
	if doc["flushed"] != true || doc["clips"] != float64(2) || doc["rotatedJournal"] != true {
		t.Fatalf("first flush = %v", doc)
	}

	// DELETE becomes a tombstone in the next flushed segment.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/clips/doomed", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete returned %d", resp.StatusCode)
	}
	doc = flush()
	if doc["flushed"] != true || doc["tombstones"] != float64(1) || doc["clips"] != float64(0) {
		t.Fatalf("tombstone flush = %v", doc)
	}

	// Health and metrics surface the storage tier.
	hr, err := http.Get(srv.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	storage, ok := health["storage"].(map[string]any)
	if !ok || storage["segments"] != float64(2) || storage["coldClips"] != float64(1) {
		t.Fatalf("health storage section = %v", health["storage"])
	}
	mr, err := http.Get(srv.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	body := string(raw)
	for _, want := range []string{
		"videodb_segments 2", "videodb_segment_flushes_total 2",
		"videodb_cold_clips 1", "videodb_clip_cache_capacity",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	srv.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the survivor comes back from the mmap-ed segments, the
	// tombstoned clip stays gone, and no WAL replay is needed.
	st2 := openStore(t, dir)
	defer st2.Close()
	if st2.Replay().Records != 0 {
		t.Fatalf("restart replayed %d WAL records, want 0", st2.Replay().Records)
	}
	srv2 := httptest.NewServer(New(st2.DB(), WithStorage(st2)).Handler())
	defer srv2.Close()
	cr, err := http.Get(srv2.URL + "/api/clips/kept")
	if err != nil {
		t.Fatal(err)
	}
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK {
		t.Fatalf("GET kept clip after restart: %d", cr.StatusCode)
	}
	gr, err := http.Get(srv2.URL + "/api/clips/doomed")
	if err != nil {
		t.Fatal(err)
	}
	gr.Body.Close()
	if gr.StatusCode != http.StatusNotFound {
		t.Fatalf("tombstoned clip answered %d after restart", gr.StatusCode)
	}
}
