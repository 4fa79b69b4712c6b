package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer, recorded by the bench around
// the call. Spans of one request share Req; Parent is the ID of the
// span of the rung above (0 for a root). Times are ns from the
// tracer's origin.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and counts in memory until the run ends. It is
// not safe for concurrent use: each traced run records from one
// goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), counts: map[string]float64{}}
}

// add records a finished span and returns its ID for children.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Req: req,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin))})
	return id
}

// count adds to a named counter taken at the same boundary as a span.
func (t *tracer) count(name string, n float64) {
	t.counts[name] += n
}

// durations returns, for every span of the given name, its duration
// and its self time: the duration minus what its child spans cover.
func (t *tracer) durations(name string) (total, self []float64) {
	children := map[int]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if s.Name == name {
			d := s.End - s.Start
			total = append(total, float64(d))
			self = append(self, float64(d-children[s.ID]))
		}
	}
	return total, self
}

// medianUS returns the median duration and self time of a span name in
// microseconds (0 when there is no such span).
func (t *tracer) medianUS(name string) (total, self float64) {
	tot, slf := t.durations(name)
	return median(tot) / 1e3, median(slf) / 1e3
}

// write stores the trace as <out>/trace_<workload>.json.
func (t *tracer) write(cfg runConfig) error {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.OutDir, "trace_"+cfg.Workload+".json")
	doc := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Counts   map[string]float64 `json:"counts"`
		Spans    []span             `json:"spans"`
	}{cfg.Workload, cfg.Seed, t.counts, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	cfg.logf("trace: %d spans -> %s", len(t.spans), path)
	return nil
}
