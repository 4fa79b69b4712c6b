// Command bench is this repository's benchmark of record: four
// workloads, the end-to-end metrics BENCHMARK.json bounds, and a traced
// run that times each layer's public functions from outside. README.md
// says what each workload and metric is for.
//
//	go run -C bench videodb/bench -workload <name|all> -seed 1 -seconds 15 -trace 0|1 [-out bench-out]
//	go run -C bench videodb/bench -selfcheck
//
// The last line of standard output is the result as one JSON object;
// everything above it is for people. A wrong answer exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload  = flag.String("workload", "all", "workload name, or all")
		seed      = flag.Uint64("seed", 1, "seed for every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured window in seconds")
		trace     = flag.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
		out       = flag.String("out", "bench-out", "directory for traces and scratch stores")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice untraced and compare against the bounds")
	)
	flag.Parse()
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds, *out))
	}
	names := []string{*workload}
	if *workload == "all" {
		names = nil
		for _, w := range workloadSpecs {
			names = append(names, w.Name)
		}
	}
	code := 0
	for _, name := range names {
		cfg := runConfig{Workload: name, Seed: *seed, Seconds: *seconds, Trace: *trace != 0,
			OutDir: *out, Size: fullSizing(), Log: os.Stdout}
		res, err := runAndReport(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		if !res.Correct {
			code = 1
		}
	}
	os.Exit(code)
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// specsFor returns the metric list a run of this kind prints.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// runAndReport runs one workload, prints the readable report and then
// the driver's result line.
func runAndReport(cfg runConfig) (*result, error) {
	res, err := run(cfg)
	if err != nil {
		return nil, err
	}
	specs := specsFor(cfg.Trace)
	report(cfg, res, specs)
	line, err := resultLine(res, specs)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(cfg.Log, line)
	return res, nil
}

// resultLine encodes a result as the one-line JSON object the driver
// reads: exactly the metrics of specs, each with its unit.
func resultLine(res *result, specs []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, max(res.Attempted, 1), res.Failed, map[string]value{}}
	for _, m := range specs {
		doc.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
	}
	line, err := json.Marshal(doc)
	return string(line), err
}

// scratchDir returns a fresh directory under the run's output
// directory for a store; the caller removes it.
func scratchDir(cfg runConfig, name string) (string, error) {
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(cfg.OutDir, "tmp-"+name+"-")
}
