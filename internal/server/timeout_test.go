package server

import (
	"bufio"
	"context"
	"errors"
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

	"videodb/internal/admission"
	"videodb/internal/core"
	"videodb/internal/video"
)

func emptyDB(t *testing.T) *core.Database {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestClientHangupIsNotATimeout: a request whose context was cancelled
// by its client, not by the per-request deadline, gets the handler's own
// answer — never the timeout 503.
func TestClientHangupIsNotATimeout(t *testing.T) {
	h := New(emptyDB(t)).Handler()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/query?varba=1&varoa=1", nil).WithContext(ctx))
	if rec.Code != http.StatusOK || strings.Contains(rec.Body.String(), `"timeout"`) {
		t.Errorf("cancelled request answered %d %s, want the handler's 200", rec.Code, rec.Body)
	}

	// A client that sends a valid batch and half-closes its socket: the
	// server sees EOF, which cancels the request context.
	ts := httptest.NewServer(h)
	defer ts.Close()
	body := `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"varba":1,"varoa":1},`, MaxBatch), ",") + `]}`
	req := fmt.Sprintf("POST /api/query/batch HTTP/1.1\r\nHost: node\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s", len(body), body)
	for i := 0; i < 50; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.WriteString(conn, req); err != nil {
			t.Fatal(err)
		}
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got, _ := io.ReadAll(resp.Body)
		conn.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %d: half-closed client got %d %s, want 200", i, resp.StatusCode, got)
		}
	}
}

// TestTimedOutHandlersStayInsideInflightCap: a handler that ignores its
// context runs past the deadline, and its admission slot stays held
// until it returns — at most MaxInflight handlers ever run at once.
func TestTimedOutHandlersStayInsideInflightCap(t *testing.T) {
	s := New(emptyDB(t), WithTimeout(20*time.Millisecond),
		WithAdmission(admission.New(admission.Config{MaxInflight: 1, QueueDepth: 4, QueueTimeout: 10 * time.Second})))
	var running, peak atomic.Int32
	stubborn := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		n := running.Add(1)
		for {
			if p := peak.Load(); n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Millisecond)
		running.Add(-1)
		_, _ = io.WriteString(w, "late")
	})
	ts := httptest.NewServer(s.withLogging(s.withRecovery(s.withAdmission(s.withTimeout(stubborn)))))
	defer ts.Close()

	codes := make([]int, 4)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/stubborn")
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}()
	}
	wg.Wait()
	if p := peak.Load(); p != 1 {
		t.Errorf("%d handlers ran at once under MaxInflight 1", p)
	}
	for i, code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Errorf("request %d answered %d, want the timeout 503", i, code)
		}
	}
}

// TestTimedOutHandlerReturnsBeforeItsAnswer: the timeout 503 goes out on
// the handler's own goroutine, so the client reads it only after the
// handler returned, and the handler's late write is refused.
func TestTimedOutHandlerReturnsBeforeItsAnswer(t *testing.T) {
	s := New(emptyDB(t), WithTimeout(20*time.Millisecond))
	var returned atomic.Bool
	writeErr := make(chan error, 1)
	late := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		defer returned.Store(true)
		time.Sleep(100 * time.Millisecond)
		_, err := io.WriteString(w, "too late")
		writeErr <- err
	})
	ts := httptest.NewServer(s.withLogging(s.withRecovery(s.withTimeout(late))))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/late")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if !returned.Load() {
		t.Error("the client got its answer while the handler was still running")
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("late handler answered %d, want 503", resp.StatusCode)
	}
	checkBackpressure(t, resp, "timeout")
	if err := <-writeErr; !errors.Is(err, http.ErrHandlerTimeout) {
		t.Errorf("late write returned %v, want http.ErrHandlerTimeout", err)
	}
}

// slowMedia loads its one clip only after a delay, ignoring the request.
type slowMedia struct {
	clip  *video.Clip
	delay time.Duration
}

func (m slowMedia) Load(string) (*video.Clip, error) {
	time.Sleep(m.delay)
	return m.clip, nil
}

// TestTimedOutRequestCountsItsStatus: the route metrics count the status
// the client got — the timeout 503 — not the 200 the handler would have
// sent.
func TestTimedOutRequestCountsItsStatus(t *testing.T) {
	clip := video.NewClip("slow", 1)
	clip.Append(video.NewFrame(2, 2))
	s := New(emptyDB(t), WithTimeout(100*time.Millisecond)).
		WithMedia(slowMedia{clip, 300 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getJSON(t, ts.URL+"/api/frame?clip=slow&frame=0", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("slow frame answered %d, want 503", code)
	}
	resp, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	if !strings.Contains(text, `videodb_http_requests_total{route="GET /api/frame",code="503"} 1`+"\n") {
		t.Errorf("timed-out request not counted under 503:\n%s", text)
	}
	if strings.Contains(text, `videodb_http_requests_total{route="GET /api/frame",code="200"}`) {
		t.Error("timed-out request counted under 200")
	}
}
