package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCoordinatorHealthDocument pins the coordinator's /api/health
// bytes: three shards, one of them unreachable once probed.
func TestCoordinatorHealthDocument(t *testing.T) {
	a := newFakeBackend(t, primaryDoc(0, "g1"))
	b := newFakeBackend(t, primaryDoc(0, "g1"))
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	c, err := New(Config{
		Shards:        []ShardConfig{{Primary: a.ts.URL}, {Primary: deadURL}, {Primary: b.ts.URL}},
		ProbeInterval: time.Hour,
		Timeout:       2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	c.probeAll(testContext(t))
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)

	resp, err := http.Get(front.URL + "/api/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type %q, want application/json", ct)
	}
	const want = `{"role":"coordinator","shards":3,"shardsReachable":2,"status":"ok"}` + "\n"
	if string(body) != want {
		t.Fatalf("health document\n got %q\nwant %q", body, want)
	}
}
