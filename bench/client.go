package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// headerPartial is what a coordinator sets to "true" on an answer
// assembled without every shard.
const headerPartial = "X-Videodb-Partial"

// writePrefix names the clips store_rw writes during a run; read
// checks ignore them so answers stay comparable to the static oracle.
const writePrefix = "w-"

// op is one request and what a right answer to it looks like.
type op struct {
	Class  int
	Method string
	URL    string
	Body   []byte
	// Key is the JSON key whose occurrences are counted in the answer
	// ("" checks the status only) and Want their expected number.
	// Want < 0 defers the comparison: Ref then finds the op again.
	Key  string
	Want int
	Ref  int
}

// sample is one completed op. Start is an offset from the run's
// origin so samples of all clients share one timeline.
type sample struct {
	Class int
	Start time.Duration
	Dur   time.Duration
	// Ref and Got carry a deferred count check (Ref < 0: none).
	Ref, Got int
}

// done turns a completed op into its sample.
func (o op) done(origin, start, end time.Time, got int) sample {
	s := sample{Class: o.Class, Start: start.Sub(origin), Dur: end.Sub(start), Ref: -1}
	if o.Want < 0 {
		s.Ref, s.Got = o.Ref, got
	}
	return s
}

// newHTTPClient returns the load generators' client: one pooled
// connection per concurrent caller, never more.
func newHTTPClient(callers int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        callers,
			MaxIdleConnsPerHost: callers,
		},
	}
}

// caller issues ops one at a time and judges the answers. It is not
// safe for concurrent use; each load client owns one.
type caller struct {
	hc  *http.Client
	buf bytes.Buffer
	// Failed counts failed ops; Shed those of them the server refused
	// with 429 or 503.
	Failed, Shed int
	LastErr      error
}

func newCaller(hc *http.Client) *caller { return &caller{hc: hc} }

func (c *caller) fail(o op, format string, args ...any) {
	c.Failed++
	c.LastErr = fmt.Errorf("%s %s: %s", o.Method, o.URL, fmt.Sprintf(format, args...))
}

// do issues o and returns the count of o.Key in the answer (0 without
// a key) and whether the op succeeded. A transport error, a non-2xx
// status, a partial answer or a wrong count is a failure.
func (c *caller) do(o op) (got int, ok bool) {
	var body io.Reader
	if o.Body != nil {
		body = bytes.NewReader(o.Body)
	}
	req, err := http.NewRequest(o.Method, o.URL, body)
	if err != nil {
		c.fail(o, "%v", err)
		return 0, false
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.fail(o, "%v", err)
		return 0, false
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	switch {
	case err != nil:
		c.fail(o, "reading body: %v", err)
	case resp.StatusCode/100 != 2:
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			c.Shed++
		}
		c.fail(o, "status %d: %.120s", resp.StatusCode, c.buf.Bytes())
	case resp.Header.Get(headerPartial) == "true":
		c.fail(o, "partial answer")
	default:
		if o.Key == "" {
			return 0, true
		}
		got = countKey(c.buf.Bytes(), o.Key, writePrefix)
		if o.Want >= 0 && got != o.Want {
			c.fail(o, "%d %q entries, oracle has %d", got, o.Key, o.Want)
			return got, false
		}
		return got, true
	}
	return 0, false
}

// countKey counts the members named key in a JSON document whose
// string value does not start with skip (values of other types always
// count). It tolerates any whitespace, so an answer re-encoded compact
// or indented counts the same.
func countKey(doc []byte, key, skip string) int {
	pat := []byte(`"` + key + `"`)
	n := 0
	for {
		i := bytes.Index(doc, pat)
		if i < 0 {
			return n
		}
		doc = doc[i+len(pat):]
		j := 0
		for j < len(doc) && (doc[j] == ' ' || doc[j] == '\n' || doc[j] == '\t' || doc[j] == '\r') {
			j++
		}
		if j >= len(doc) || doc[j] != ':' {
			continue // the pattern was a value, not a member name
		}
		j++
		for j < len(doc) && (doc[j] == ' ' || doc[j] == '\n' || doc[j] == '\t' || doc[j] == '\r') {
			j++
		}
		if skip != "" && j < len(doc) && doc[j] == '"' && bytes.HasPrefix(doc[j+1:], []byte(skip)) {
			continue
		}
		n++
	}
}

// closedLoop runs one client per next function until the deadline:
// each sends its next op only after the previous one completed. The
// result holds every completed op of every client, and the callers
// hold the failures.
func closedLoop(hc *http.Client, origin time.Time, deadline time.Time, nexts []func() op) ([][]sample, []*caller) {
	out := make([][]sample, len(nexts))
	callers := make([]*caller, len(nexts))
	var wg sync.WaitGroup
	for i, next := range nexts {
		callers[i] = newCaller(hc)
		wg.Add(1)
		go func(i int, next func() op) {
			defer wg.Done()
			c := callers[i]
			samples := make([]sample, 0, 1<<16)
			for time.Now().Before(deadline) {
				o := next()
				t0 := time.Now()
				got, ok := c.do(o)
				if !ok {
					continue
				}
				samples = append(samples, o.done(origin, t0, time.Now(), got))
			}
			out[i] = samples
		}(i, next)
	}
	wg.Wait()
	return out, callers
}
