// Command vdbbench is the HTTP load driver the smoke scripts run
// against a live vdbserver or vdbcoord. It is not the
// benchmark of record: that is bench/ (see bench/README.md), and only
// its numbers judge a change.
//
//	vdbbench -target http://localhost:8080 -concurrency 16 -duration 10s
//
// runs -concurrency workers issuing a GET /api/query + GET /api/clips +
// POST /api/query/batch mix for -duration. 429 answers are shed load,
// not failures: they are counted apart from the 4xx class (`shed_rate`),
// so an overload test can assert "shed but never failed". With -cluster
// the target is a coordinator: answers flagged X-Videodb-Partial are
// counted, and /api/cluster/status is sampled for replication lag
// during the run and probed for shard count and the retry and hedge
// counters after it. With -chaos (implies -cluster) the workers become
// well-behaved clients — paced, each with a distinct X-Videodb-Client
// key — beside an unpaced abusive pool sharing one key, tallied apart as
// abuse_*. -reshard POSTs a membership change to the coordinator at
// -reshard-at of the run and fails the run if the reshard fails.
//
// The last stdout line is one flat JSON object of the counters the
// scripts assert on — the same contract bench/ uses.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.Target, "target", "http://localhost:8080", "base URL of the vdbserver or vdbcoord under test")
	flag.IntVar(&cfg.Concurrency, "concurrency", 16, "concurrent load-generating workers")
	flag.DurationVar(&cfg.Duration, "duration", 10*time.Second, "measurement length")
	flag.BoolVar(&cfg.Cluster, "cluster", false, "target is a vdbcoord coordinator: count partial answers and probe /api/cluster/status")
	flag.BoolVar(&cfg.Chaos, "chaos", false, "overload scenario (implies -cluster): paced per-key healthy workers plus an unpaced abusive client")
	flag.StringVar(&cfg.Reshard, "reshard", "", "POST this JSON body to /api/cluster/reshard mid-run (e.g. '{\"add\":[{\"primary\":\"http://s4:8080\"}]}')")
	flag.Float64Var(&cfg.ReshardAt, "reshard-at", 0.5, "fire -reshard at this fraction of -duration")
	flag.Parse()

	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "vdbbench: %v\n", err)
		os.Exit(1)
	}
}
