package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
)

// selfCheckRuns is how many runs make one set. One run is not enough
// on a shared host: single node_narrow runs minutes apart differ by
// 20-30 % when a neighbour wakes up.
const selfCheckRuns = 3

// selfCheck runs the full untraced set twice — selfCheckRuns runs a
// set, each on its own seed, the two sets alternating so that a slow
// phase of the host falls on both — and prints, per workload and
// metric, both medians, their difference in the worsening direction
// and the bound. It returns the process exit code: non-zero when a
// difference breaches its bound or a run was not correct.
func selfCheck(seed uint64, seconds float64, out string) int {
	fmt.Printf("# selfcheck: nproc=%d %s seeds=%d.. seconds=%g, median of %d runs a set, sets alternating\n\n",
		nproc(), runtime.Version(), seed, seconds, selfCheckRuns)
	fmt.Println("| workload | metric | unit | set 1 | set 2 | worse by | bound | ok |")
	fmt.Println("|---|---|---|---|---|---|---|---|")
	code := 0
	for _, w := range workloadSpecs {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
		}
		for i := 0; i < selfCheckRuns; i++ {
			for s := range sets {
				cfg := runConfig{Workload: w.Name, Seed: seed + uint64(2*i+s), Seconds: seconds,
					OutDir: out, Size: fullSizing(), Log: io.Discard}
				res, err := run(cfg)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: %d of %d operations failed\n", w.Name, cfg.Seed, res.Failed, res.Attempted)
					code = 1
				}
				for _, m := range endToEnd {
					sets[s][m.Name] = append(sets[s][m.Name], res.Metrics[m.Name])
				}
			}
		}
		for _, m := range endToEnd {
			a, b := median(sets[0][m.Name]), median(sets[1][m.Name])
			worse := worsening(m, a, b)
			ok := "yes"
			if worse > m.Bound {
				ok, code = "NO", 1
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, a, b, 100*worse, 100*m.Bound, ok)
		}
	}
	return code
}

// worsening is how much worse b is than a as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}
