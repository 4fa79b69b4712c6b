package benchfmt

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"videodb/internal/obs"
)

func sampleReport() Report {
	h := obs.NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Record(float64(i) * 1e-4) // 0.1ms .. 100ms
	}
	return Report{
		Mode:      "offline",
		Timestamp: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Config:    Config{Scale: 0.05, Seed: 1, Clips: 22, Queries: 1000, BatchSize: 16},
		Environment: Environment{
			GoVersion: "go1.22", GOOS: "linux", GOARCH: "amd64", NumCPU: 8,
		},
		Metrics: []Metric{
			{Name: "ingest_frames_per_sec", Unit: "frames/sec", Value: 1234.5},
			{Name: "ingest_clips_per_sec", Unit: "clips/sec", Value: 3.2},
			LatencyMetric("query_latency", h),
		},
	}
}

func TestRoundTrip(t *testing.T) {
	in := sampleReport()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if out.Schema != SchemaVersion {
		t.Errorf("schema = %d, want %d", out.Schema, SchemaVersion)
	}
	if out.Mode != in.Mode || !out.Timestamp.Equal(in.Timestamp) {
		t.Errorf("identity fields drifted: %+v", out)
	}
	if out.Config != in.Config || out.Environment != in.Environment {
		t.Errorf("config/env drifted: %+v vs %+v", out.Config, out.Environment)
	}
	if len(out.Metrics) != len(in.Metrics) {
		t.Fatalf("%d metrics, want %d", len(out.Metrics), len(in.Metrics))
	}
	m, ok := out.Metric("query_latency")
	if !ok || m.Distribution == nil {
		t.Fatal("query_latency metric lost its distribution")
	}
	want := in.Metrics[2].Distribution
	if m.Distribution.Count != want.Count || m.Distribution.P99 != want.P99 {
		t.Errorf("distribution drifted: %+v vs %+v", m.Distribution, want)
	}
}

func TestDecodeRejectsWrongSchemaVersion(t *testing.T) {
	in := sampleReport()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`"schema": %d`, SchemaVersion)
	for _, bad := range []string{`"schema": 99`, `"schema": 0`} {
		bumped := strings.Replace(buf.String(), current, bad, 1)
		_, err := Decode(strings.NewReader(bumped))
		if !errors.Is(err, ErrSchema) {
			t.Fatalf("Decode(%s) err = %v, want ErrSchema", bad, err)
		}
	}
}

// A committed baseline predates a schema bump by definition: every
// version back to MinSchemaVersion must keep decoding.
func TestDecodeAcceptsOlderSchemaVersions(t *testing.T) {
	in := sampleReport()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	current := fmt.Sprintf(`"schema": %d`, SchemaVersion)
	for v := MinSchemaVersion; v <= SchemaVersion; v++ {
		aged := strings.Replace(buf.String(), current, fmt.Sprintf(`"schema": %d`, v), 1)
		out, err := Decode(strings.NewReader(aged))
		if err != nil {
			t.Fatalf("Decode(schema=%d): %v", v, err)
		}
		if out.Schema != v {
			t.Fatalf("Decode(schema=%d) kept schema %d", v, out.Schema)
		}
	}
}

func TestDecodeRejectsUnknownFields(t *testing.T) {
	in := sampleReport()
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatal(err)
	}
	widened := strings.Replace(buf.String(), `"mode"`, `"surprise": true, "mode"`, 1)
	if _, err := Decode(strings.NewReader(widened)); err == nil {
		t.Fatal("Decode accepted an artifact with an unknown field")
	}
}

func TestValidateCatchesMalformedReports(t *testing.T) {
	base := sampleReport()
	base.Schema = SchemaVersion
	cases := []struct {
		name   string
		mutate func(*Report)
	}{
		{"no mode", func(r *Report) { r.Mode = "" }},
		{"no timestamp", func(r *Report) { r.Timestamp = time.Time{} }},
		{"no metrics", func(r *Report) { r.Metrics = nil }},
		{"unnamed metric", func(r *Report) { r.Metrics[0].Name = "" }},
		{"unitless metric", func(r *Report) { r.Metrics[0].Unit = "" }},
		{"duplicate metric", func(r *Report) { r.Metrics[1].Name = r.Metrics[0].Name }},
		{"disordered quantiles", func(r *Report) { r.Metrics[2].Distribution.P90 = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := base
			r.Metrics = append([]Metric(nil), base.Metrics...)
			d := *base.Metrics[2].Distribution
			r.Metrics[2].Distribution = &d
			tc.mutate(&r)
			if err := r.Validate(); err == nil {
				t.Error("Validate accepted a malformed report")
			}
		})
	}
}

func TestFilename(t *testing.T) {
	ts := time.Date(2026, 8, 5, 9, 30, 15, 0, time.UTC)
	if got, want := Filename("offline", ts), "BENCH_offline_20260805T093015Z.json"; got != want {
		t.Errorf("Filename = %q, want %q", got, want)
	}
}
