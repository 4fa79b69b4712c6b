package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestManifestMatchesSpec holds BENCHMARK.json to the tables in
// spec.go: same workloads, same metrics, same units, bounds and order.
func TestManifestMatchesSpec(t *testing.T) {
	m := readManifest(t)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, bench default %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloadSpecs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(m.Workloads), len(workloadSpecs))
	}
	for i, w := range workloadSpecs {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest %+v, spec %+v", i, m.Workloads[i], w)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	seen := map[string]bool{}
	check := func(kind string, got []manifestMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s %d: manifest %+v, spec %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound != w.Bound || w.Bound > 0.25 || w.Bound <= 0)) {
				t.Errorf("%s %s: bound %v, spec %v", kind, w.Name, g.Bound, w.Bound)
			}
			if !nameRE.MatchString(w.Name) || !unitRE.MatchString(w.Unit) {
				t.Errorf("%s %s (%s): name or unit outside the allowed alphabet", kind, w.Name, w.Unit)
			}
			if w.Better != "lower" && w.Better != "higher" {
				t.Errorf("%s %s: better=%q", kind, w.Name, w.Better)
			}
			if seen[w.Name] {
				t.Errorf("name %q used twice", w.Name)
			}
			seen[w.Name] = true
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd, true)
	check("per_layer", m.PerLayer, perLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("setup_s must lead the end-to-end list: %+v", endToEnd[0])
	}
	for _, e := range endToEnd[1:] {
		if e.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a wider bound than setup_s", e.Name)
		}
	}
}

func tinyConfig(workload string, trace bool, out string) runConfig {
	return runConfig{Workload: workload, Seed: 7, Seconds: 0.8, Trace: trace,
		OutDir: out, Size: tinySizing(), Log: io.Discard}
}

// TestEveryWorkloadRuns drives each workload end to end at tiny size,
// untraced and traced, and checks the result line carries exactly the
// declared metric names, all answers verified.
func TestEveryWorkloadRuns(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadSpecs {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := tinyConfig(w.Name, trace, out)
				res, err := run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				specs := specsFor(trace)
				line, err := resultLine(res, specs)
				if err != nil {
					t.Fatal(err)
				}
				var doc struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(line), &doc); err != nil {
					t.Fatal(err)
				}
				if doc.Correct == nil || doc.Attempted == nil || doc.Failed == nil || len(doc.Metrics) != len(specs) {
					t.Fatalf("result line %s", line)
				}
				for _, m := range specs {
					got, ok := doc.Metrics[m.Name]
					if !ok || got.Unit != m.Unit || got.Value == nil || math.IsNaN(*got.Value) || math.IsInf(*got.Value, 0) {
						t.Errorf("metric %s: %+v", m.Name, got)
					}
					if !trace && ok && *got.Value <= 0 {
						t.Errorf("end-to-end metric %s is %v, must never be 0", m.Name, *got.Value)
					}
				}
				if trace {
					if _, err := os.Stat(out + "/trace_" + w.Name + ".json"); err != nil {
						t.Errorf("no span file: %v", err)
					}
				}
			})
		}
	}
}

// inputDigest hashes everything a run generates from its seed: the
// payloads it loads, the queries it prechecks and the first requests of
// each client, with the listener's address (a fresh port) cut off.
func inputDigest(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	cfg := tinyConfig(workload, false, t.TempDir())
	cfg.Seed = seed
	h := sha256.New()
	if workload == "ingest_pixels" {
		clips, err := synthCorpus(cfg.Size)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range shuffled(clips, newRNG(seed)) {
			fmt.Fprintf(h, "%s %d %v\n", c.Name, c.Len(), c.Frames[0].Pix[:64])
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	var w servingWorkload
	var corpus func() *servingCorpus
	switch workload {
	case "node_narrow":
		x := newNodeNarrow(cfg)
		w, corpus = x, func() *servingCorpus { return x.corpus }
	case "cluster_wide":
		x := newClusterWide(cfg)
		w, corpus = x, func() *servingCorpus { return x.corpus }
	case "store_rw":
		x := newStoreRW(cfg)
		w = x
		corpus = func() *servingCorpus {
			for _, p := range x.fresh {
				h.Write(p.Data)
			}
			return x.corpus
		}
	}
	defer w.stop()
	base, err := prepareBase(cfg.Size)
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []func() error{func() error { return w.inputs(base) }, w.boot, w.prepare} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range corpus().Payloads {
		h.Write(p.Data)
	}
	for _, q := range w.precheck() {
		fmt.Fprintln(h, q.path())
	}
	for _, next := range w.clients(2) {
		for i := 0; i < 300; i++ {
			o := next()
			fmt.Fprintf(h, "%s %s %d %s\n", o.Method, strings.TrimPrefix(o.URL, w.target()), o.Want, o.Body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadSpecs {
		a, b, c := inputDigest(t, w.Name, 11), inputDigest(t, w.Name, 11), inputDigest(t, w.Name, 12)
		if a != b {
			t.Errorf("%s: seed 11 generated different inputs twice", w.Name)
		}
		if a == c {
			t.Errorf("%s: seeds 11 and 12 generated the same inputs", w.Name)
		}
	}
}

func TestQuantileRule(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := quantile(xs, 0.5); got != 500 {
		t.Errorf("p50 of 1..1000 = %v", got)
	}
	if got := quantile(xs, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v", got)
	}
	if v, pct := tail(xs); pct != 99 || v != 990 {
		t.Errorf("1000 samples: tail p%d = %v, want p99 = 990", pct, v)
	}
	// One sample fewer leaves only 9 beyond p99: withheld.
	if v, pct := tail(xs[:999]); pct != 95 || v != 950 {
		t.Errorf("999 samples: tail p%d = %v, want p95 = 950", pct, v)
	}
	if _, pct := tail(xs[:199]); pct != 90 {
		t.Errorf("199 samples: tail p%d, want p90", pct)
	}
	if _, pct := tail(xs[:99]); pct != 50 {
		t.Errorf("99 samples: tail p%d, want the median", pct)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	d := summarize([]float64{3, 1, 2})
	if d.N != 3 || d.P50 != 2 {
		t.Errorf("summarize = %+v", d)
	}
}

func TestZipf(t *testing.T) {
	const n, draws = 2048, 400000
	z := newZipf(n, 1.1)
	r := newRNG(3)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		k := z.sample(r)
		if k < 0 || k >= n {
			t.Fatalf("rank %d out of range", k)
		}
		counts[k]++
	}
	// P(0)/P(1) = 2^1.1 and P(0)/P(9) = 10^1.1, within sampling noise.
	for _, c := range []struct {
		k    int
		want float64
	}{{1, math.Pow(2, 1.1)}, {9, math.Pow(10, 1.1)}} {
		got := float64(counts[0]) / float64(counts[c.k])
		if math.Abs(got-c.want)/c.want > 0.08 {
			t.Errorf("P(0)/P(%d) = %.3f, want %.3f", c.k, got, c.want)
		}
	}
	if !sort.SliceIsSorted(counts[:8], func(i, j int) bool { return counts[i] > counts[j] }) {
		t.Errorf("head ranks not in descending frequency: %v", counts[:8])
	}
	// Same seed, same draws.
	a, b := newRNG(5), newRNG(5)
	for i := 0; i < 1000; i++ {
		if z.sample(a) != z.sample(b) {
			t.Fatal("sampler is not a function of its seed")
		}
	}
}

func TestDueTimeAccounting(t *testing.T) {
	start := time.Unix(1000, 0)
	p := pacer{start: start, interval: 10 * time.Millisecond}
	if got := p.due(3); got != start.Add(30*time.Millisecond) {
		t.Errorf("due(3) = %v", got)
	}
	// Sent on time: latency is completion − due.
	r := pacedResult(p.due(1), p.due(1), p.due(1).Add(2*time.Millisecond))
	if r.late != 0 || r.latency != 2*time.Millisecond {
		t.Errorf("on time: %+v", r)
	}
	// A 25 ms stall before op 1 was sent is charged to op 1 even though
	// the system answered it in 2 ms.
	sent := p.due(1).Add(25 * time.Millisecond)
	r = pacedResult(p.due(1), sent, sent.Add(2*time.Millisecond))
	if r.late != 25*time.Millisecond || r.latency != 27*time.Millisecond {
		t.Errorf("late: %+v", r)
	}
	// A generator that wakes early is not credited.
	r = pacedResult(p.due(1), p.due(1).Add(-time.Millisecond), p.due(1).Add(time.Millisecond))
	if r.late != 0 || r.latency != time.Millisecond {
		t.Errorf("early: %+v", r)
	}
}

func TestCountKey(t *testing.T) {
	indented := "[\n  {\n    \"clip\": \"a\",\n    \"shot\": 1\n  },\n  {\n    \"clip\": \"w-000001\"\n  }\n]"
	compact := `{"matches":[{"clip":"a","scene":"\"clip\""},{"clip":"w-1"},{"clip":"b"}],"partial":false}`
	for _, c := range []struct {
		doc, key, skip string
		want           int
	}{
		{indented, "clip", "", 2},
		{indented, "clip", "w-", 1},
		{indented, "shot", "w-", 1},
		{compact, "clip", "", 3},
		{compact, "clip", "w-", 2},
		{compact, "absent", "", 0},
	} {
		if got := countKey([]byte(c.doc), c.key, c.skip); got != c.want {
			t.Errorf("countKey(%q, %q) = %d, want %d", c.key, c.skip, got, c.want)
		}
	}
}

func TestMeasureWindow(t *testing.T) {
	msec := time.Millisecond
	// One client, cycles of 4 ops (3 of class 0, 1 of class 1), 10 ms an
	// op; the second half of the run is twice as slow.
	var s []sample
	at := time.Duration(0)
	for i := 0; i < 400; i++ {
		d := 10 * msec
		if i >= 200 {
			d = 20 * msec
		}
		class := 0
		if i%4 == 3 {
			class = 1
		}
		s = append(s, sample{Class: class, Start: at, Dur: d})
		at += d
	}
	warm := 40 * 10 * msec
	w := measure([][]sample{s}, warm, 4)
	if w.Completed != 360 || len(w.ByClass[0]) != 270 || len(w.ByClass[1]) != 90 {
		t.Errorf("window kept %d ops: %d + %d", w.Completed, len(w.ByClass[0]), len(w.ByClass[1]))
	}
	// 90 cycles make 45 slices of 2 cycles; the best decile is the fast half.
	if n := len(w.SliceP50[0]); n != 45 {
		t.Errorf("%d slices, want 45", n)
	}
	if w.OpsPerSec < 99 || w.OpsPerSec > 101 {
		t.Errorf("ops/s = %v, want the undisturbed 100", w.OpsPerSec)
	}
	if got := bestLatency(w.SliceP50[1]); got != 10 {
		t.Errorf("best class-1 latency = %v ms, want 10", got)
	}
	if got := sliceOps(19, 20); got != 0 {
		t.Errorf("sliceOps(19, 20) = %d: a slice needs a whole cycle", got)
	}
}

func TestMixIsExact(t *testing.T) {
	next := newMix([]int{14, 3, 3}, newRNG(9))
	for cycle := 0; cycle < 3; cycle++ {
		var seen [3]int
		for i := 0; i < mixLen; i++ {
			seen[next()]++
		}
		if seen != [3]int{14, 3, 3} {
			t.Errorf("cycle %d mixed %v", cycle, seen)
		}
	}
}
