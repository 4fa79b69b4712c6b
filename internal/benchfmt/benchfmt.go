// Package benchfmt defines the versioned JSON format of the
// repository's performance artifacts (`BENCH_<mode>_<timestamp>.json`),
// written by cmd/vdbbench and consumed by future regression tooling.
//
// An artifact is one Report: the schema version, the benchmark mode
// ("offline" or "server"), the exact configuration that produced it,
// the hardware/toolchain environment, and a flat list of named metrics.
// Scalar metrics (throughputs, counts, rates) carry a single Value;
// latency metrics additionally carry a Distribution with count, mean
// and p50/p90/p99 quantiles taken from an HDR-style histogram
// (obs.Histogram).
//
// Decode rejects artifacts whose schema version it does not understand
// (ErrSchema) and artifacts with fields it does not know, so a drifting
// writer fails loudly instead of silently producing files a comparison
// script half-reads. docs/BENCHMARKING.md documents every field.
package benchfmt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"videodb/internal/obs"
)

// SchemaVersion is the artifact format version this package writes.
// Bump it on any incompatible change to Report's shape. Version 2
// added the storage phase (startup_seconds, rss_peak_bytes and the
// storage_* metrics); version-1 artifacts still decode.
const SchemaVersion = 2

// MinSchemaVersion is the oldest artifact version Decode still
// accepts: committed baselines predate a schema bump by definition,
// so the reader keeps one version of history.
const MinSchemaVersion = 1

// ErrSchema reports an artifact written under a schema version this
// package does not understand; match it with errors.Is.
var ErrSchema = errors.New("benchfmt: unsupported schema version")

// Report is one benchmark run's complete result.
type Report struct {
	// Schema is the artifact format version; Encode sets it to
	// SchemaVersion and Decode rejects anything else.
	Schema int `json:"schema"`
	// Mode is the vdbbench mode that produced the artifact:
	// "offline" or "server".
	Mode string `json:"mode"`
	// Timestamp is when the run started (UTC, RFC 3339).
	Timestamp time.Time `json:"timestamp"`
	// Config records the knobs the run was invoked with.
	Config Config `json:"config"`
	// Environment records where the run executed.
	Environment Environment `json:"environment"`
	// Metrics is the flat list of measured results.
	Metrics []Metric `json:"metrics"`
}

// Config is the union of both modes' knobs; fields irrelevant to a
// mode are zero and omitted from the JSON.
type Config struct {
	// Scale is the offline corpus scale factor in (0,1].
	Scale float64 `json:"scale,omitempty"`
	// Seed fixes the query-generation stream.
	Seed uint64 `json:"seed,omitempty"`
	// Clips is the number of corpus clips the offline run ingested.
	Clips int `json:"clips,omitempty"`
	// Queries is the number of single-shot queries issued.
	Queries int `json:"queries,omitempty"`
	// BatchSize is the queries-per-request size of the batch phase
	// (0 = batch phase skipped).
	BatchSize int `json:"batchSize,omitempty"`
	// Workers bounds ingest parallelism in offline mode (0 =
	// GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// QueryCache is the query-result cache capacity the offline run
	// opened the database with (0 = caching disabled, cached phase
	// skipped).
	QueryCache int `json:"queryCache,omitempty"`
	// Target is the base URL server mode drove.
	Target string `json:"target,omitempty"`
	// Concurrency is server mode's worker count.
	Concurrency int `json:"concurrency,omitempty"`
	// Duration is server mode's wall-clock run length.
	Duration string `json:"duration,omitempty"`
	// Shards is the cluster size when the target was a coordinator
	// (server mode with -cluster); 0 for single-node runs. Additive
	// field: artifacts written before it decode unchanged.
	Shards int `json:"shards,omitempty"`
	// StorageFlushes is the number of segment flushes the offline
	// storage phase split the corpus across (0 = phase skipped).
	// Schema 2.
	StorageFlushes int `json:"storageFlushes,omitempty"`
}

// Environment identifies the machine and toolchain of a run, so
// artifacts from different hosts are not compared as equals.
type Environment struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	Hostname  string `json:"hostname,omitempty"`
}

// Metric is one named measurement. Value is the headline number in
// Unit (a throughput, a count, a ratio); latency-style metrics carry
// the full Distribution and set Value to the mean.
type Metric struct {
	Name         string        `json:"name"`
	Unit         string        `json:"unit"`
	Value        float64       `json:"value"`
	Distribution *Distribution `json:"distribution,omitempty"`
}

// Distribution summarises a latency histogram.
type Distribution struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// LatencyMetric builds a Metric whose Value is the histogram mean and
// whose Distribution carries the quantiles (none for an empty histogram).
func LatencyMetric(name string, h *obs.Histogram) Metric {
	m := Metric{Name: name, Unit: "seconds", Value: h.Mean()}
	if h.Count() > 0 {
		m.Distribution = &Distribution{
			Count: h.Count(),
			Min:   h.Quantile(0),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
			Max:   h.Quantile(1),
		}
	}
	return m
}

// Metric returns the named metric.
func (r Report) Metric(name string) (Metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Validate checks a report's internal consistency: version, mode,
// timestamp, and well-formed uniquely-named metrics with ordered
// quantiles.
func (r Report) Validate() error {
	if r.Schema < MinSchemaVersion || r.Schema > SchemaVersion {
		return fmt.Errorf("%w: got %d, want %d..%d", ErrSchema, r.Schema, MinSchemaVersion, SchemaVersion)
	}
	if r.Mode == "" {
		return fmt.Errorf("benchfmt: report has no mode")
	}
	if r.Timestamp.IsZero() {
		return fmt.Errorf("benchfmt: report has no timestamp")
	}
	if len(r.Metrics) == 0 {
		return fmt.Errorf("benchfmt: report has no metrics")
	}
	seen := make(map[string]bool, len(r.Metrics))
	for _, m := range r.Metrics {
		if m.Name == "" {
			return fmt.Errorf("benchfmt: metric with empty name")
		}
		if m.Unit == "" {
			return fmt.Errorf("benchfmt: metric %q has no unit", m.Name)
		}
		if seen[m.Name] {
			return fmt.Errorf("benchfmt: duplicate metric %q", m.Name)
		}
		seen[m.Name] = true
		if d := m.Distribution; d != nil {
			if d.Count <= 0 {
				return fmt.Errorf("benchfmt: metric %q: empty distribution", m.Name)
			}
			if d.Min > d.P50 || d.P50 > d.P90 || d.P90 > d.P99 || d.P99 > d.Max {
				return fmt.Errorf("benchfmt: metric %q: quantiles out of order", m.Name)
			}
		}
	}
	return nil
}

// Encode validates the report and writes it as indented JSON. The
// report's Schema is forced to SchemaVersion.
func Encode(w io.Writer, r Report) error {
	r.Schema = SchemaVersion
	if err := r.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Decode reads one artifact, rejecting unknown schema versions with
// ErrSchema and unknown fields with a decode error.
func Decode(r io.Reader) (Report, error) {
	// Peek the version with a tolerant pass first, so a future-version
	// artifact reports ErrSchema rather than "unknown field".
	raw, err := io.ReadAll(r)
	if err != nil {
		return Report{}, fmt.Errorf("benchfmt: reading artifact: %w", err)
	}
	var version struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(raw, &version); err != nil {
		return Report{}, fmt.Errorf("benchfmt: decoding artifact: %w", err)
	}
	if version.Schema < MinSchemaVersion || version.Schema > SchemaVersion {
		return Report{}, fmt.Errorf("%w: got %d, want %d..%d", ErrSchema, version.Schema, MinSchemaVersion, SchemaVersion)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var rep Report
	if err := dec.Decode(&rep); err != nil {
		return Report{}, fmt.Errorf("benchfmt: decoding artifact: %w", err)
	}
	if err := rep.Validate(); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// Filename returns the canonical artifact name for a mode and start
// time: BENCH_<mode>_<UTC timestamp>.json.
func Filename(mode string, t time.Time) string {
	return fmt.Sprintf("BENCH_%s_%s.json", mode, t.UTC().Format("20060102T150405Z"))
}
