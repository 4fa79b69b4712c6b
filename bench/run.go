package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation: a workload, its seed, the measured
// window, and whether this is the traced run.
type runConfig struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	OutDir   string
	Size     sizing
	// Log receives the human-readable report.
	Log io.Writer
}

func (c runConfig) window() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

func (c runConfig) warmup() time.Duration {
	return time.Duration(c.Size.WarmupSec * float64(time.Second))
}

func (c runConfig) logf(format string, args ...any) {
	fmt.Fprintf(c.Log, format+"\n", args...)
}

// result is what one run reports: the driver's result line plus the
// values behind it.
type result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// Metrics holds every end-to-end metric of an untraced run, or
	// every per-layer metric of a traced one.
	Metrics map[string]float64
	// Classes holds the latency distribution of each request type, by
	// the names later issues use (query, browse, write, ...).
	Classes map[string]dist
}

func newResult(workload string) *result {
	return &result{Workload: workload, Correct: true,
		Metrics: map[string]float64{}, Classes: map[string]dist{}}
}

// fail records n wrong or failed operations.
func (r *result) fail(n int, why string, log func(string, ...any)) {
	if n <= 0 {
		return
	}
	r.Failed += n
	r.Correct = false
	log("FAILED: %d × %s", n, why)
}

// failed folds the callers' failed requests into the result.
func (r *result) failed(log func(string, ...any), callers ...*caller) {
	for _, c := range callers {
		r.Attempted += c.Failed
		if c.Failed > 0 {
			r.fail(c.Failed, fmt.Sprintf("failed request, last: %v", c.LastErr), log)
		}
	}
}

// classes records the latency distribution of each request type.
func (r *result) classes(names []string, w windowed) {
	for i, name := range names {
		if xs := w.ByClass[i]; len(xs) > 0 {
			r.Classes[name] = summarize(xs)
		}
	}
}

// run dispatches one workload.
func run(cfg runConfig) (*result, error) {
	switch cfg.Workload {
	case "ingest_pixels":
		return runIngest(cfg)
	case "node_narrow":
		return runServing(cfg, newNodeNarrow(cfg))
	case "cluster_wide":
		return runServing(cfg, newClusterWide(cfg))
	case "store_rw":
		return runServing(cfg, newStoreRW(cfg))
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// repeatSetup runs boot n times and returns the median duration. Each
// boot replaces the system the previous one built, so the last one is
// what the run measures.
func repeatSetup(n int, boot func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := boot(); err != nil {
			return 0, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// liveHeapMiB is HeapAlloc after a forced collection: what the loaded
// system keeps reachable. Two cycles, so objects freed by finalizers
// (segment mappings) are gone too.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// The host this benchmark runs on slows down by up to 2× for seconds
// to minutes at a time (neighbours contending for memory bandwidth;
// README.md has the measurements), and only ever slows down. A median
// over the whole window moves with that, so every timing is taken over
// slices of the window and the reported value is the best decile of
// the slices: what the code does when the host leaves it alone.

// bestRate is the 90th percentile of per-slice rates.
func bestRate(rates []float64) float64 {
	s := append([]float64(nil), rates...)
	sort.Float64s(s)
	return quantile(s, 0.9)
}

// bestLatency is the 10th percentile of per-slice median latencies.
func bestLatency(medians []float64) float64 {
	s := append([]float64(nil), medians...)
	sort.Float64s(s)
	return quantile(s, 0.1)
}

// mixLen is the length of the request pattern every closed-loop client
// cycles through; a slice is a whole number of cycles, so every slice
// holds exactly the same mix of request types.
const mixLen = 20

// maxSlices bounds the slices cut from one client's window.
const maxSlices = 48

// newMix returns a generator that cycles through a seeded shuffle of
// counts[c] copies of each class c. The counts sum to mixLen.
func newMix(counts []int, r *rng) func() int {
	var pattern []int
	for class, n := range counts {
		for i := 0; i < n; i++ {
			pattern = append(pattern, class)
		}
	}
	for i := len(pattern) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		pattern[i], pattern[j] = pattern[j], pattern[i]
	}
	i := -1
	return func() int {
		i = (i + 1) % len(pattern)
		return pattern[i]
	}
}

// windowed is the measured part of a closed-loop run.
type windowed struct {
	// ByClass holds latencies in ms of the ops that started inside the
	// window; SliceP50 each slice's median latency per class.
	ByClass  map[int][]float64
	SliceP50 map[int][]float64
	// OpsPerSec is the sum over clients of each client's best rate.
	OpsPerSec float64
	Completed int
}

// slices cuts n ops into at most maxSlices equal runs of whole cycles
// and returns the run length (0 when not even one cycle completed).
func sliceOps(n, cycle int) int {
	cycles := n / cycle
	if cycles == 0 {
		return 0
	}
	per := (cycles + maxSlices - 1) / maxSlices
	return per * cycle
}

// measure cuts the ops that started at or after warm out of each
// client's samples and summarizes them whole and in slices of whole
// request cycles.
func measure(clients [][]sample, warm time.Duration, cycle int) windowed {
	w := windowed{ByClass: map[int][]float64{}, SliceP50: map[int][]float64{}}
	for _, samples := range clients {
		first := sort.Search(len(samples), func(i int) bool { return samples[i].Start >= warm })
		in := samples[first:]
		w.Completed += len(in)
		for _, s := range in {
			w.ByClass[s.Class] = append(w.ByClass[s.Class], ms(s.Dur))
		}
		g := sliceOps(len(in), cycle)
		if g == 0 {
			continue
		}
		var rates []float64
		for lo := 0; lo+g <= len(in); lo += g {
			run := in[lo : lo+g]
			last := run[g-1]
			rates = append(rates, float64(g)/(last.Start+last.Dur-run[0].Start).Seconds())
			by := map[int][]float64{}
			for _, s := range run {
				by[s.Class] = append(by[s.Class], ms(s.Dur))
			}
			for class, xs := range by {
				w.SliceP50[class] = append(w.SliceP50[class], median(xs))
			}
		}
		w.OpsPerSec += bestRate(rates)
	}
	return w
}

// report prints a result the way a person reads it: every metric by
// name with its unit, then the request-type distributions.
func report(cfg runConfig, res *result, specs []metricSpec) {
	cfg.logf("== %s seed=%d seconds=%g trace=%v nproc=%d %s", res.Workload,
		cfg.Seed, cfg.Seconds, cfg.Trace, nproc(), runtime.Version())
	for _, m := range specs {
		cfg.logf("  %-36s %14.4f %s", m.Name, res.Metrics[m.Name], m.Unit)
	}
	var names []string
	for name := range res.Classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := res.Classes[name]
		cfg.logf("  %-10s n=%-7d p50 %10.4f ms   p%d %10.4f ms", name, d.N, d.P50, d.TailPct, d.Tail)
	}
	cfg.logf("  attempted %d failed %d correct %v", res.Attempted, res.Failed, res.Correct)
}
