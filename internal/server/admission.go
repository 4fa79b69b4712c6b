package server

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"videodb/internal/admission"
)

// WithAdmission installs an overload-protection controller. Requests
// past its rate limits are shed with 429, requests past its concurrency
// limit queue and are shed with 503 when the wait budget runs out; both
// answers carry Retry-After and the standard JSON error body. Health,
// metrics and replication endpoints are exempt so operators can always
// observe an overloaded server and replicas can always catch up.
func WithAdmission(c *admission.Controller) Option {
	return func(s *Server) { s.admission = c }
}

// admissionExempt lists the endpoints that must stay reachable under
// overload: observability and replication are how an operator sees the
// overload and how replicas stay close enough to fail over to.
func admissionExempt(r *http.Request) bool {
	p := r.URL.Path
	return p == "/api/health" || p == "/api/metrics" ||
		strings.HasPrefix(p, "/api/replication/")
}

// withAdmission runs the admit-or-shed decision before any handler
// work: first the rate-limit stage (global and per-client buckets),
// then the concurrency stage (bounded deadline-aware queue).
func (s *Server) withAdmission(next http.Handler) http.Handler {
	if s.admission == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if admissionExempt(r) {
			next.ServeHTTP(w, r)
			return
		}
		if err := s.admission.Admit(admission.ClientKey(r)); err != nil {
			writeShed(w, err)
			return
		}
		release, err := s.admission.Acquire(r.Context())
		if err != nil {
			writeShed(w, err)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// writeShed maps an admission refusal onto the wire: rate-limit sheds
// answer 429 (the client is asking too fast — slowing down helps),
// queue sheds answer 503 (the server is saturated — the client did
// nothing wrong).
func writeShed(w http.ResponseWriter, err error) {
	code := http.StatusServiceUnavailable
	reason := "shed"
	retry := time.Second
	var ae *admission.Error
	if errors.As(err, &ae) {
		reason = ae.Reason
		retry = ae.RetryAfter
		if ae.Reason == admission.ReasonRateLimit || ae.Reason == admission.ReasonClientLimit {
			code = http.StatusTooManyRequests
		}
	}
	writeBackpressure(w, code, retry, reason, "request shed: "+reason)
}

// writeBackpressure is the one place every backpressure answer (shed
// 429/503 and the per-request-timeout 503) goes through: a Retry-After
// hint in whole seconds (minimum 1, per RFC 9110) and the same JSON
// error body shape as every other API error, plus a reason field for
// telemetry.
func writeBackpressure(w http.ResponseWriter, code int, retryAfter time.Duration, reason, msg string) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeJSONStatus(w, code, map[string]string{"error": msg, "reason": reason})
}
