package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"sync"
	"time"
)

// statusWriter records the status code and body size a handler wrote,
// so middleware can log and meter responses after the fact.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// status returns the written status, defaulting to 200 for handlers
// that never called WriteHeader.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// started reports whether any part of the response reached the wire.
func (w *statusWriter) started() bool { return w.code != 0 }

// withLogging emits one structured log line per request: method, path,
// status, response bytes, duration and peer address.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status(),
			"bytes", sw.bytes,
			"duration", time.Since(start),
			"remote", r.RemoteAddr,
		)
	})
}

// withRecovery converts a handler panic into a 500 JSON response (when
// the response has not started) instead of killing the connection, and
// logs the stack. http.ErrAbortHandler keeps its net/http meaning.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler { //nolint:errorlint // sentinel, by contract
				panic(v)
			}
			s.log.Error("panic in handler",
				"method", r.Method,
				"path", r.URL.Path,
				"panic", fmt.Sprint(v),
				"stack", string(debug.Stack()),
			)
			if sw, ok := w.(*statusWriter); !ok || !sw.started() {
				WriteError(w, http.StatusInternalServerError,
					fmt.Errorf("internal server error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// timeoutExempt reports whether a request may outlive the per-request
// timeout: uploads, snapshots and replica bootstrap downloads
// legitimately run for as long as the analysis or transfer takes.
func timeoutExempt(r *http.Request) bool {
	switch r.Method {
	case http.MethodPost:
		return r.URL.Path == "/api/clips" || r.URL.Path == "/api/snapshot"
	case http.MethodGet:
		return r.URL.Path == "/api/replication/snapshot"
	}
	return false
}

// withTimeout bounds every non-exempt request to s.timeout, answering
// through writeBackpressure (503 + Retry-After + JSON body, the same
// contract as admission sheds) when the deadline passes. A timed-out
// handler keeps running against a canceled context, but its writes land
// in a discarded buffer — http.TimeoutHandler semantics, reimplemented
// here because TimeoutHandler cannot set headers on the timeout answer.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	if s.timeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if timeoutExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()
		r = r.WithContext(ctx)

		tw := &timeoutWriter{header: make(http.Header)}
		done := make(chan struct{})
		panicChan := make(chan any, 1)
		go func() {
			defer func() {
				if v := recover(); v != nil {
					panicChan <- v
				}
			}()
			next.ServeHTTP(tw, r)
			close(done)
		}()
		select {
		case v := <-panicChan:
			// Re-panic on the request goroutine so withRecovery (outside
			// this middleware) answers the 500 and logs the stack.
			panic(v)
		case <-done:
			tw.flushTo(w)
		case <-ctx.Done():
			tw.timeOut()
			writeBackpressure(w, http.StatusServiceUnavailable,
				time.Second, "timeout", "request timed out")
		}
	})
}

// timeoutWriter buffers a handler's response so it can be either
// delivered whole (handler finished in time) or discarded whole
// (deadline passed first). The mutex arbitrates the race between the
// handler goroutine finishing its write and the timeout firing.
type timeoutWriter struct {
	mu       sync.Mutex
	header   http.Header
	code     int
	buf      bytes.Buffer
	timedOut bool
}

func (tw *timeoutWriter) Header() http.Header { return tw.header }

func (tw *timeoutWriter) WriteHeader(code int) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.code == 0 {
		tw.code = code
	}
}

func (tw *timeoutWriter) Write(p []byte) (int, error) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return 0, http.ErrHandlerTimeout
	}
	if tw.code == 0 {
		tw.code = http.StatusOK
	}
	return tw.buf.Write(p)
}

// timeOut marks the response abandoned: later handler writes fail with
// http.ErrHandlerTimeout and a late flushTo becomes a no-op.
func (tw *timeoutWriter) timeOut() {
	tw.mu.Lock()
	tw.timedOut = true
	tw.mu.Unlock()
}

// flushTo delivers the buffered response to the real writer.
func (tw *timeoutWriter) flushTo(w http.ResponseWriter) {
	tw.mu.Lock()
	defer tw.mu.Unlock()
	if tw.timedOut {
		return
	}
	dst := w.Header()
	for k, v := range tw.header {
		dst[k] = v
	}
	if tw.code == 0 {
		tw.code = http.StatusOK
	}
	w.WriteHeader(tw.code)
	_, _ = w.Write(tw.buf.Bytes())
}
