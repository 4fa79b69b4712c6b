package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/vtest"
	"videodb/internal/wal"
)

// openStore opens the segment store in dir the way vdbserver does.
func openStore(t *testing.T, dir string) *segstore.Store {
	t.Helper()
	st, err := segstore.Open(dir, segstore.Options{
		Core:   core.DefaultOptions(),
		Policy: wal.PolicyAlways,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// storeServer serves st with everything vdbserver attaches.
func storeServer(st *segstore.Store) *httptest.Server {
	return httptest.NewServer(New(st.DB(),
		WithStorage(st), WithJournal(st.Journal()), WithRecoveryInfo(st.Replay())).Handler())
}

// The end-to-end crash-recovery scenario: a server flushes a segment,
// journals two more ingests, and dies mid-append. The next boot must
// serve every durably-journaled clip, expose the recovery outcome and
// journal counters at /api/metrics, and rotate the journal on the next
// flush.
func TestServerRecoversFromTornJournal(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, segstore.WALName)
	flush := func(base string) {
		t.Helper()
		resp, err := http.Post(base+"/api/snapshot", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("snapshot returned %d", resp.StatusCode)
		}
	}

	// Life one: one clip flushed, two only journaled.
	st1 := openStore(t, dir)
	if _, err := st1.DB().Ingest(vtest.TwoShotClip("snapped", 1, 2, 8, 16)); err != nil {
		t.Fatal(err)
	}
	srv1 := storeServer(st1)
	flush(srv1.URL)
	if _, err := st1.DB().Ingest(vtest.TwoShotClip("journaled-a", 3, 4, 8, 16)); err != nil {
		t.Fatal(err)
	}
	if _, err := st1.DB().Ingest(vtest.TwoShotClip("journaled-b", 5, 6, 8, 16)); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: a third append dies partway through, leaving a torn
	// record after the two good ones.
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x40, 0, 0, 0, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Life two: the startup sequence vdbserver runs.
	st2 := openStore(t, dir)
	res := st2.Replay()
	if !res.Damaged || res.Records != 2 {
		t.Fatalf("recovery result %+v, want 2 records and a truncated tail", res)
	}
	srv2 := storeServer(st2)
	defer srv2.Close()

	// Every durable clip is served.
	var clips []ClipSummary
	if code := getJSON(t, srv2.URL+"/api/clips", &clips); code != http.StatusOK {
		t.Fatalf("GET /api/clips returned %d", code)
	}
	if len(clips) != 3 {
		t.Fatalf("recovered server lists %d clips, want 3: %+v", len(clips), clips)
	}
	for _, want := range []string{"snapped", "journaled-a", "journaled-b"} {
		if code := getJSON(t, srv2.URL+"/api/clips/"+want, nil); code != http.StatusOK {
			t.Errorf("GET /api/clips/%s returned %d", want, code)
		}
	}

	// The recovery outcome and journal counters are scrapable.
	body := getMetrics(t, srv2.URL)
	for _, want := range []string{
		"videodb_recovery_damaged 1",
		"videodb_recovery_replayed_records 2",
		"videodb_wal_records_total",
		"videodb_wal_bytes",
		"videodb_wal_fsync_seconds_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "videodb_recovery_truncated_bytes 6") {
		t.Errorf("metrics missing truncated-bytes gauge; body has %q", grepLine(body, "truncated"))
	}

	// A fresh flush rotates the journal back to just its header.
	flush(srv2.URL)
	stats := st2.Journal().Stats()
	if stats.Rotations != 1 {
		t.Fatalf("journal rotations = %d after snapshot, want 1", stats.Rotations)
	}
	fi, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != stats.Bytes || fi.Size() >= 64 {
		t.Fatalf("journal is %d bytes after rotation (stats say %d)", fi.Size(), stats.Bytes)
	}
	if !strings.Contains(getMetrics(t, srv2.URL), "videodb_snapshot_last_success_timestamp_seconds") {
		t.Error("metrics missing snapshot timestamp after successful snapshot")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Life three starts from the rotated journal: clean replay, same
	// three clips.
	st3 := openStore(t, dir)
	defer st3.Close()
	if res3 := st3.Replay(); res3.Damaged || res3.Records != 0 {
		t.Fatalf("post-rotation replay %+v, want clean and empty", res3)
	}
	if got := len(st3.DB().Clips()); got != 3 {
		t.Fatalf("life three has %d clips, want 3", got)
	}
}

// Without a journal or recovery info the new metrics stay absent — no
// misleading zero-valued series.
func TestMetricsOmitWalSeriesWhenUnconfigured(t *testing.T) {
	ts, _ := testServer(t)
	body := getMetrics(t, ts.URL)
	for _, absent := range []string{"videodb_wal_", "videodb_recovery_"} {
		if strings.Contains(body, absent) {
			t.Errorf("metrics contain %q series without a journal", absent)
		}
	}
}

func getMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func grepLine(body, substr string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// TestWriteAnswersCarryWalPosition: a journalled node's answers to an
// upload and a delete carry the journal's generation and size as they
// stand after the write; an in-memory node's answers carry neither.
func TestWriteAnswersCarryWalPosition(t *testing.T) {
	write := func(t *testing.T, base, method, path string, body io.Reader, wantCode int) http.Header {
		t.Helper()
		req, err := http.NewRequest(method, base+path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("%s %s: status %d, want %d", method, path, resp.StatusCode, wantCode)
		}
		return resp.Header
	}
	clip := vtest.TwoShotClip("w", 1, 2, 8, 16)

	t.Run("journalled", func(t *testing.T) {
		st := openStore(t, t.TempDir())
		defer st.Close()
		ts := storeServer(st)
		defer ts.Close()
		j := st.Journal()
		var last int64
		for _, w := range []struct {
			method, path string
			body         io.Reader
			code         int
		}{
			{http.MethodPost, "/api/clips", vdbfBody(t, clip), http.StatusCreated},
			{http.MethodDelete, "/api/clips/w", nil, http.StatusOK},
		} {
			h := write(t, ts.URL, w.method, w.path, w.body, w.code)
			if got := h.Get(HeaderWalGen); got != j.Gen() {
				t.Errorf("%s: %s %q, want %q", w.method, HeaderWalGen, got, j.Gen())
			}
			size := h.Get(HeaderWalSize)
			if want := strconv.FormatInt(j.Size(), 10); size != want {
				t.Errorf("%s: %s %q, want %q", w.method, HeaderWalSize, size, want)
			}
			n, _ := strconv.ParseInt(size, 10, 64)
			if n <= last {
				t.Errorf("%s: journal size %d did not grow past %d", w.method, n, last)
			}
			last = n
		}
	})

	t.Run("in memory", func(t *testing.T) {
		ts, _ := testServer(t)
		for _, h := range []http.Header{
			write(t, ts.URL, http.MethodPost, "/api/clips", vdbfBody(t, clip), http.StatusCreated),
			write(t, ts.URL, http.MethodDelete, "/api/clips/w", nil, http.StatusOK),
		} {
			if h.Get(HeaderWalGen) != "" || h.Get(HeaderWalSize) != "" {
				t.Errorf("in-memory write answer carries a journal position: %q %q", h.Get(HeaderWalGen), h.Get(HeaderWalSize))
			}
		}
	})
}
