package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/store"
	"videodb/internal/synth"
	"videodb/internal/video"
)

// smallClip renders a short clip for upload tests.
func smallClip(t testing.TB, name string, seed uint64) *video.Clip {
	t.Helper()
	spec, err := synth.BuildClip(synth.GenreDrama, synth.ClipParams{
		Name: name, Shots: 4, DurationSec: 20, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip, _, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

func vdbfBody(t testing.TB, clip *video.Clip) *bytes.Reader {
	t.Helper()
	var buf bytes.Buffer
	if err := store.WriteClip(&buf, clip); err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf.Bytes())
}

func TestPanicRecoveryReturnsJSON500(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db)
	boom := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(s.withLogging(s.withRecovery(s.withTimeout(boom))))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/anything")
	if err != nil {
		t.Fatalf("connection dropped instead of 500: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q, want JSON", ct)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("panic response is not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Errorf("panic response missing error field: %v", body)
	}
}

// TestDefaultLogDisabled: the default logger is off at every level, so
// withLogging builds no attributes for lines nobody reads.
func TestDefaultLogDisabled(t *testing.T) {
	s := New(emptyDB(t))
	for _, l := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if s.log.Enabled(context.Background(), l) {
			t.Errorf("default logger enabled at %v", l)
		}
	}
}

func TestPerRequestTimeout(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, WithTimeout(20*time.Millisecond))
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	ts := httptest.NewServer(s.withTimeout(slow))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("slow request returned %d, want 503", resp.StatusCode)
	}

	// Uploads are exempt: a POST /api/clips outlives the request timeout.
	done := make(chan int, 1)
	exempt := httptest.NewServer(s.withTimeout(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond)
		w.WriteHeader(http.StatusCreated)
	})))
	defer exempt.Close()
	go func() {
		resp, err := http.Post(exempt.URL+"/api/clips", "application/octet-stream", nil)
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	if code := <-done; code != http.StatusCreated {
		t.Errorf("exempt upload returned %d, want 201", code)
	}
}

func TestLiveIngestEndpoint(t *testing.T) {
	ts, db := testServer(t)
	clip := smallClip(t, "uploaded", 700)

	resp, err := http.Post(ts.URL+"/api/clips", "application/octet-stream", vdbfBody(t, clip))
	if err != nil {
		t.Fatal(err)
	}
	var sum ClipSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload returned %d: %+v", resp.StatusCode, sum)
	}
	if sum.Name != "uploaded" || sum.Shots == 0 {
		t.Fatalf("bad summary: %+v", sum)
	}

	// The clip is immediately visible to queries.
	rec, ok := db.Clip("uploaded")
	if !ok {
		t.Fatal("uploaded clip not in database")
	}
	sf := rec.Shots[0].Feature
	u := fmt.Sprintf("%s/api/query?varba=%f&varoa=%f", ts.URL, sf.VarBA, sf.VarOA)
	var matches []MatchJSON
	if code := getJSON(t, u, &matches); code != 200 {
		t.Fatalf("query status %d", code)
	}
	found := false
	for _, m := range matches {
		found = found || m.Clip == "uploaded"
	}
	if !found {
		t.Error("uploaded clip invisible to /api/query")
	}

	// A duplicate upload is rejected with 409 (before re-analysis).
	resp, err = http.Post(ts.URL+"/api/clips", "application/octet-stream", vdbfBody(t, clip))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate upload returned %d, want 409", resp.StatusCode)
	}

	// Garbage bodies are 400, not 500.
	resp, err = http.Post(ts.URL+"/api/clips", "application/octet-stream", strings.NewReader("not a clip"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage upload returned %d, want 400", resp.StatusCode)
	}
}

func TestY4MIngestNeedsName(t *testing.T) {
	ts, _ := testServer(t)
	clip := smallClip(t, "stream", 701)
	var buf bytes.Buffer
	if err := store.WriteY4M(&buf, clip); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/clips", "video/x-yuv4mpeg", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("nameless y4m upload returned %d, want 400", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/clips?name=stream", "video/x-yuv4mpeg", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("y4m upload returned %d, want 201", resp.StatusCode)
	}
}

func TestUploadBodyLimit(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, WithMaxBody(64))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	clip := smallClip(t, "big", 702)
	resp, err := http.Post(ts.URL+"/api/clips", "application/octet-stream", vdbfBody(t, clip))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload returned %d, want 413", resp.StatusCode)
	}
}

func TestRemoveEndpoint(t *testing.T) {
	ts, db := testServer(t)
	del := func(name string) int {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/clips/"+name, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := del("alpha"); code != http.StatusOK {
		t.Fatalf("DELETE alpha returned %d", code)
	}
	if _, ok := db.Clip("alpha"); ok {
		t.Error("alpha still in database after DELETE")
	}
	if code := del("alpha"); code != http.StatusNotFound {
		t.Errorf("second DELETE returned %d, want 404", code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := testServer(t)
	// Exercise the API, then scrape.
	for _, p := range []string{"/api/clips", "/api/clips/alpha", "/api/clips/missing"} {
		getJSON(t, ts.URL+p, nil)
	}
	resp, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`videodb_http_requests_total{route="GET /api/clips",code="200"}`,
		`videodb_http_requests_total{route="GET /api/clips/{name}",code="404"}`,
		`videodb_http_request_duration_seconds_bucket{route="GET /api/clips",le="+Inf"}`,
		"videodb_clips 2",
		"videodb_ingests_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, `code="200"} 0`) {
		t.Error("request counters are zero after traffic")
	}
}

// TestMetricsCountConcurrentRequestsExactly hammers the per-route
// instruments from many goroutines — first observations of a route and
// of a status code racing each other and a scraper — and then demands
// exact totals: the lock-free first-use paths may not drop a request.
func TestMetricsCountConcurrentRequestsExactly(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := New(db).Handler()
	serve := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Body.String()
	}
	const workers, rounds = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				serve("/api/query?varba=1&varoa=1") // 200
				serve("/api/query")                 // 400
				serve("/api/clips/missing")         // 404
				if i%50 == 0 {
					serve("/api/metrics")
				}
			}
		}()
	}
	wg.Wait()
	text := serve("/api/metrics")
	for _, want := range []string{
		fmt.Sprintf(`videodb_http_requests_total{route="GET /api/query",code="200"} %d`, workers*rounds),
		fmt.Sprintf(`videodb_http_requests_total{route="GET /api/query",code="400"} %d`, workers*rounds),
		fmt.Sprintf(`videodb_http_requests_total{route="GET /api/clips/{name}",code="404"} %d`, workers*rounds),
		fmt.Sprintf(`videodb_http_request_duration_seconds_count{route="GET /api/query"} %d`, 2*workers*rounds),
		fmt.Sprintf(`videodb_http_request_duration_seconds_bucket{route="GET /api/query",le="+Inf"} %d`, 2*workers*rounds),
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, `route="GET /api/similar"`) {
		t.Error("a route nobody called has series")
	}
}

// Without a segment store there is nothing to flush into: 501. (The
// flush itself is TestServerSegmentStorage.)
func TestSnapshotEndpointNeedsStore(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Post(ts.URL+"/api/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("unconfigured snapshot returned %d, want 501", resp.StatusCode)
	}
}

// TestListingsDuringRemoval exercises the fixed handleClips race: clip
// listings run while clips are removed and re-ingested concurrently.
// The old Clips+Clip pair panicked when a DELETE landed between the two
// calls; run with -race.
func TestListingsDuringRemoval(t *testing.T) {
	ts, db := testServer(t)
	clip := smallClip(t, "churn", 704)
	if _, err := db.Ingest(clip); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = db.Remove("churn")
			_, _ = db.Ingest(clip)
		}
	}()
	for i := 0; i < 50; i++ {
		var clips []ClipSummary
		if code := getJSON(t, ts.URL+"/api/clips", &clips); code != 200 {
			t.Fatalf("listing returned %d during churn", code)
		}
		for _, c := range clips {
			if c.Name == "" || c.Frames == 0 {
				t.Fatalf("listing returned a half-removed clip: %+v", c)
			}
		}
	}
	close(stop)
	wg.Wait()
}
