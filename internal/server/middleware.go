package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"
)

// statusWriter is the one wrapper around a request's ResponseWriter: it
// records the status code and body size a handler wrote, so middleware
// can log and meter responses after the fact, and it enforces
// withTimeout's deadline at the first byte (see overdue).
type statusWriter struct {
	http.ResponseWriter
	code     int
	bytes    int64
	deadline context.Context // withTimeout's, while the handler runs under it
	refused  bool            // the timeout answer went out; handler writes fail
}

// asStatusWriter returns the request's statusWriter, wrapping w only
// when no outer middleware did.
func asStatusWriter(w http.ResponseWriter) *statusWriter {
	if sw, ok := w.(*statusWriter); ok {
		return sw
	}
	return &statusWriter{ResponseWriter: w}
}

func (w *statusWriter) WriteHeader(code int) {
	if w.overdue() {
		return
	}
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.overdue() {
		return 0, http.ErrHandlerTimeout
	}
	if w.code == 0 {
		w.code = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// errTimedOut is the cause of withTimeout's context when its own
// deadline, not the client or the server's shutdown, ended it.
var errTimedOut = errors.New("request timed out")

// overdue answers the timeout 503 in place of the handler's response if
// nothing was written before withTimeout's own deadline passed (the
// handler's headers, Content-Length included, are dropped with it), and
// reports whether the handler's writes are refused from now on.
func (w *statusWriter) overdue() bool {
	if w.code == 0 && w.deadline != nil && errors.Is(context.Cause(w.deadline), errTimedOut) {
		w.deadline = nil
		clear(w.Header())
		writeBackpressure(w, http.StatusServiceUnavailable, time.Second, "timeout", errTimedOut.Error())
		w.refused = true
	}
	return w.refused
}

// status returns the written status, defaulting to 200 for handlers
// that never called WriteHeader.
func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// withLogging emits one structured log line per request: method, path,
// status, response bytes, duration and peer address — unless the
// logger is disabled at info level, which then costs nothing more.
func (s *Server) withLogging(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		if s.log.Enabled(r.Context(), slog.LevelInfo) {
			s.log.Info("request", "method", r.Method, "path", r.URL.Path, "status", sw.status(),
				"bytes", sw.bytes, "duration", time.Since(start), "remote", r.RemoteAddr)
		}
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
			s.log.Error("panic in handler", "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(v), "stack", string(debug.Stack()))
			if sw, ok := w.(*statusWriter); !ok || sw.code == 0 {
				WriteError(w, http.StatusInternalServerError, fmt.Errorf("internal server error"))
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

// withTimeout bounds every non-exempt request to s.timeout. The handler
// runs on the request's goroutine with the deadline in its context and
// is never abandoned: one that watches the context stops at the
// deadline, one that does not holds its client (and admission slot)
// until it returns. A response not started by the deadline is answered
// through writeBackpressure (503 + Retry-After + JSON body, the
// contract of admission sheds); one already under way is delivered.
func (s *Server) withTimeout(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.timeout <= 0 || timeoutExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		ctx, cancel := context.WithTimeoutCause(r.Context(), s.timeout, errTimedOut)
		sw := asStatusWriter(w)
		sw.deadline = ctx
		defer func() { sw.deadline = nil; cancel() }() // a recovered panic's 500 is not a timeout
		next.ServeHTTP(sw, r.WithContext(ctx))
		sw.overdue() // the handler returned without writing
	})
}
