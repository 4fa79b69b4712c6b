package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"videodb/internal/benchfmt"
	"videodb/internal/obs"
	"videodb/internal/rng"
)

// serverConfig parameterizes an HTTP load run.
type serverConfig struct {
	Target      string
	Concurrency int
	Duration    time.Duration
	Seed        uint64
	Batch       int
	// Cluster marks the target a vdbcoord coordinator: the artifact's
	// mode becomes "cluster", degraded (partial) answers are counted
	// via the X-Videodb-Partial header, and a post-run probe of
	// /api/cluster/status adds shard count, per-shard fan-out p99 and
	// replication lag to the metrics.
	Cluster bool
	// Reshard, when non-empty, is a JSON body POSTed to the
	// coordinator's /api/cluster/reshard at ReshardAt of the run — an
	// online membership change under full load. Its report lands in the
	// artifact as reshard_* metrics, and a failed reshard fails the run.
	Reshard   string
	ReshardAt float64
	// Chaos runs the overload scenario (implies Cluster): the
	// Concurrency workers become well-behaved clients — each pacing
	// itself and carrying a distinct X-Videodb-Client key — while an
	// extra pool of abusive workers hammers the target unpaced, all
	// sharing one client key. Headline metrics cover only the healthy
	// workers (the "zero 5xx on healthy traffic" assertion); the abuser
	// is tallied separately as abuse_requests / abuse_shed_rate.
	Chaos bool
}

// Chaos-scenario pacing: each well-behaved worker sleeps healthyPace
// between requests (≤ ~40 req/s per worker), so a per-client rate
// limit above that never sheds healthy traffic; the abusive pool runs
// unpaced with abuseWorkers goroutines on one shared client key.
const (
	healthyPace  = 25 * time.Millisecond
	abuseWorkers = 4
)

// workerStats is one load worker's private tally; workers never share
// state while the clock runs, so the hot loop takes no locks.
type workerStats struct {
	query, clips, batch *obs.Histogram
	byClass             [6]int64 // index status/100; 0 = transport error
	requests            int64
	batchedQueries      int64
	partial             int64 // answers flagged X-Videodb-Partial: true
	shed                int64 // 429 answers: admission shed, not failure
	clientKey           string
	pace                time.Duration
}

func newWorkerStats() *workerStats {
	return &workerStats{
		query: obs.NewHistogram(),
		clips: obs.NewHistogram(),
		batch: obs.NewHistogram(),
	}
}

// runServer drives a running vdbserver with Concurrency workers for
// Duration, mixing single queries (~80%), clip listings (~10%) and
// batch queries (~10%, when Batch > 0). Queries jitter around real
// shot features fetched from the server before the clock starts.
func runServer(cfg serverConfig) (benchfmt.Report, error) {
	if cfg.Concurrency < 1 {
		return benchfmt.Report{}, fmt.Errorf("server mode needs -concurrency >= 1")
	}
	base := strings.TrimRight(cfg.Target, "/")
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}

	feats, err := fetchFeatures(client, base)
	if err != nil {
		return benchfmt.Report{}, err
	}

	deadline := time.Now().Add(cfg.Duration)
	stats := make([]*workerStats, cfg.Concurrency)
	var abuseStats []*workerStats
	var wg sync.WaitGroup
	start := time.Now()

	// Replication lag is bursty — a post-run probe only sees wherever
	// the replicas happen to be once the load stops — so in cluster
	// mode a sampler polls the status endpoint throughout the run and
	// the artifact reports the worst lag observed, not the last.
	var sampler *lagSampler
	if cfg.Cluster || cfg.Chaos {
		sampler = startLagSampler(client, base, deadline)
	}
	var reshardC chan reshardOutcome
	if cfg.Reshard != "" {
		reshardC = make(chan reshardOutcome, 1)
		go func() {
			at := time.Duration(cfg.ReshardAt * float64(cfg.Duration))
			time.Sleep(at)
			reshardC <- postReshard(base, cfg.Reshard)
		}()
	}
	for w := 0; w < cfg.Concurrency; w++ {
		st := newWorkerStats()
		if cfg.Chaos {
			st.clientKey = fmt.Sprintf("bench-w%d", w)
			st.pace = healthyPace
		}
		stats[w] = st
		wg.Add(1)
		go func(workerSeed uint64) {
			defer wg.Done()
			loadWorker(client, base, feats, cfg.Batch, workerSeed, deadline, st)
		}(cfg.Seed + uint64(w)*7919)
	}
	if cfg.Chaos {
		// The abusive pool: unpaced workers all presenting one client
		// key, so per-client admission sheds them while the keyed,
		// paced workers above sail through.
		abuseStats = make([]*workerStats, abuseWorkers)
		for w := 0; w < abuseWorkers; w++ {
			st := newWorkerStats()
			st.clientKey = "abuser"
			abuseStats[w] = st
			wg.Add(1)
			go func(workerSeed uint64) {
				defer wg.Done()
				loadWorker(client, base, feats, 0, workerSeed, deadline, st)
			}(cfg.Seed + 1e6 + uint64(w)*104729)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	total := newWorkerStats()
	for _, st := range stats {
		total.query.Merge(st.query)
		total.clips.Merge(st.clips)
		total.batch.Merge(st.batch)
		for i, c := range st.byClass {
			total.byClass[i] += c
		}
		total.requests += st.requests
		total.batchedQueries += st.batchedQueries
		total.partial += st.partial
		total.shed += st.shed
	}
	abuse := newWorkerStats()
	for _, st := range abuseStats {
		for i, c := range st.byClass {
			abuse.byClass[i] += c
		}
		abuse.requests += st.requests
		abuse.shed += st.shed
	}
	if total.requests == 0 {
		return benchfmt.Report{}, fmt.Errorf("no requests completed against %s", base)
	}

	all := obs.NewHistogram()
	all.Merge(total.query)
	all.Merge(total.clips)
	all.Merge(total.batch)
	errored := total.byClass[0] + total.byClass[4] + total.byClass[5]
	metrics := []benchfmt.Metric{
		{Name: "requests_total", Unit: "requests", Value: float64(total.requests)},
		{Name: "requests_per_sec", Unit: "requests/sec",
			Value: float64(total.requests) / elapsed.Seconds()},
		{Name: "error_rate", Unit: "ratio",
			Value: float64(errored) / float64(total.requests)},
		{Name: "http_4xx", Unit: "requests", Value: float64(total.byClass[4])},
		{Name: "http_5xx", Unit: "requests", Value: float64(total.byClass[5])},
		{Name: "http_429", Unit: "requests", Value: float64(total.shed)},
		{Name: "shed_rate", Unit: "ratio",
			Value: float64(total.shed) / float64(total.requests)},
		{Name: "transport_errors", Unit: "requests", Value: float64(total.byClass[0])},
		benchfmt.LatencyMetric("request_latency", all),
		benchfmt.LatencyMetric("query_latency", total.query),
	}
	if total.clips.Count() > 0 {
		metrics = append(metrics, benchfmt.LatencyMetric("clips_latency", total.clips))
	}
	if total.batch.Count() > 0 {
		metrics = append(metrics,
			benchfmt.LatencyMetric("batch_latency", total.batch),
			benchfmt.Metric{Name: "batch_query_throughput", Unit: "queries/sec",
				Value: float64(total.batchedQueries) / elapsed.Seconds()})
	}

	mode := "server"
	config := benchfmt.Config{
		Seed: cfg.Seed, BatchSize: cfg.Batch, Target: base,
		Concurrency: cfg.Concurrency, Duration: cfg.Duration.String(),
	}
	if cfg.Cluster || cfg.Chaos {
		mode = "cluster"
		metrics = append(metrics,
			benchfmt.Metric{Name: "partial_answers", Unit: "requests", Value: float64(total.partial)},
			benchfmt.Metric{Name: "partial_rate", Unit: "ratio",
				Value: float64(total.partial) / float64(total.requests)})
		cm, shards, err := clusterMetrics(client, base)
		if err != nil {
			fmt.Fprintf(os.Stderr, "vdbbench: warning: cluster status probe failed: %v\n", err)
		} else {
			metrics = append(metrics, cm...)
			config.Shards = shards
		}
		if maxLag, samples := sampler.wait(); samples > 0 {
			metrics = append(metrics,
				benchfmt.Metric{Name: "replication_lag_bytes_max", Unit: "bytes", Value: float64(maxLag)},
				benchfmt.Metric{Name: "replication_lag_samples", Unit: "samples", Value: float64(samples)})
		}
	}
	if reshardC != nil {
		// The membership change may outlast the load window; the run is
		// not over until its outcome is known.
		oc := <-reshardC
		if oc.err != nil {
			return benchfmt.Report{}, fmt.Errorf("mid-run reshard failed: %w", oc.err)
		}
		fmt.Printf("reshard: %d->%d shards, %d clips moved (%.1f%% of keyspace), barrier %.0fms, dual-read window %.0fms\n",
			oc.rep.FromShards, oc.rep.ToShards, oc.rep.MovedClips, 100*oc.rep.MovedFraction,
			oc.rep.CutoverSeconds*1e3, oc.rep.DualReadSeconds*1e3)
		metrics = append(metrics,
			benchfmt.Metric{Name: "reshard_moved_clips", Unit: "clips", Value: float64(oc.rep.MovedClips)},
			benchfmt.Metric{Name: "reshard_moved_fraction", Unit: "ratio", Value: oc.rep.MovedFraction},
			benchfmt.Metric{Name: "reshard_cutover_seconds", Unit: "seconds", Value: oc.rep.CutoverSeconds},
			benchfmt.Metric{Name: "reshard_dual_read_seconds", Unit: "seconds", Value: oc.rep.DualReadSeconds},
			benchfmt.Metric{Name: "reshard_total_seconds", Unit: "seconds", Value: oc.rep.TotalSeconds},
			benchfmt.Metric{Name: "reshard_retries", Unit: "attempts", Value: float64(oc.rep.Retries)})
	}
	if cfg.Chaos {
		mode = "chaos"
		abuseShedRate := 0.0
		if abuse.requests > 0 {
			abuseShedRate = float64(abuse.shed) / float64(abuse.requests)
		}
		metrics = append(metrics,
			benchfmt.Metric{Name: "abuse_requests", Unit: "requests", Value: float64(abuse.requests)},
			benchfmt.Metric{Name: "abuse_shed", Unit: "requests", Value: float64(abuse.shed)},
			benchfmt.Metric{Name: "abuse_shed_rate", Unit: "ratio", Value: abuseShedRate},
			benchfmt.Metric{Name: "abuse_5xx", Unit: "requests", Value: float64(abuse.byClass[5])})
	}

	fmt.Printf("%s: %d requests in %v — %.0f req/s, p50 %.3gms p90 %.3gms p99 %.3gms, %d 5xx, %d 4xx, %d shed, %d transport errors, %d partial\n",
		mode, total.requests, elapsed.Round(time.Millisecond),
		float64(total.requests)/elapsed.Seconds(),
		all.Quantile(0.50)*1e3, all.Quantile(0.90)*1e3, all.Quantile(0.99)*1e3,
		total.byClass[5], total.byClass[4], total.shed, total.byClass[0], total.partial)
	if cfg.Chaos {
		fmt.Printf("abuser: %d requests, %d shed (%.0f%%), %d 5xx\n",
			abuse.requests, abuse.shed, abuseShedRatePct(abuse), abuse.byClass[5])
	}

	return benchfmt.Report{
		Mode:        mode,
		Config:      config,
		Environment: environment(),
		Metrics:     metrics,
	}, nil
}

// abuseShedRatePct is the abusive pool's shed percentage for the
// human-readable summary line.
func abuseShedRatePct(st *workerStats) float64 {
	if st.requests == 0 {
		return 0
	}
	return 100 * float64(st.shed) / float64(st.requests)
}

// clusterMetrics probes the coordinator's status endpoint after a run
// and turns it into artifact metrics: shard count, the worst per-shard
// fan-out p99 the coordinator observed, and the worst replica byte lag
// (omitted when unknown: a down replica has no known lag).
func clusterMetrics(client *http.Client, base string) ([]benchfmt.Metric, int, error) {
	resp, err := client.Get(base + "/api/cluster/status")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d (is the target a vdbcoord?)", resp.StatusCode)
	}
	var st struct {
		Shards []struct {
			FanoutP99Seconds float64 `json:"fanoutP99Seconds"`
			FanoutCount      int64   `json:"fanoutCount"`
		} `json:"shards"`
		MaxLagBytes       int64 `json:"maxLagBytes"`
		Fetches           int64 `json:"fetches"`
		Retries           int64 `json:"retries"`
		RetriesSuppressed int64 `json:"retriesSuppressed"`
		Hedges            int64 `json:"hedges"`
		HedgeWins         int64 `json:"hedgeWins"`
		HedgesSuppressed  int64 `json:"hedgesSuppressed"`
		Backpressure      int64 `json:"backpressure"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, 0, err
	}
	worstP99 := 0.0
	for _, sh := range st.Shards {
		if sh.FanoutCount > 0 && sh.FanoutP99Seconds > worstP99 {
			worstP99 = sh.FanoutP99Seconds
		}
	}
	out := []benchfmt.Metric{
		{Name: "cluster_shards", Unit: "shards", Value: float64(len(st.Shards))},
		{Name: "shard_fanout_p99", Unit: "seconds", Value: worstP99},
		{Name: "coord_fetches", Unit: "requests", Value: float64(st.Fetches)},
		{Name: "coord_retries", Unit: "requests", Value: float64(st.Retries)},
		{Name: "coord_retries_suppressed", Unit: "requests", Value: float64(st.RetriesSuppressed)},
		{Name: "coord_hedges", Unit: "requests", Value: float64(st.Hedges)},
		{Name: "coord_hedge_wins", Unit: "requests", Value: float64(st.HedgeWins)},
		{Name: "coord_hedges_suppressed", Unit: "requests", Value: float64(st.HedgesSuppressed)},
		{Name: "coord_backpressure", Unit: "requests", Value: float64(st.Backpressure)},
	}
	if st.MaxLagBytes >= 0 {
		out = append(out, benchfmt.Metric{
			Name: "replication_lag_bytes", Unit: "bytes", Value: float64(st.MaxLagBytes)})
	}
	return out, len(st.Shards), nil
}

// lagSampler polls /api/cluster/status while the load runs and keeps
// the worst replica byte lag seen across the whole window.
type lagSampler struct {
	done    chan struct{}
	maxLag  int64
	samples int64
}

// startLagSampler samples the coordinator's maxLagBytes every 250ms
// until the deadline. Unknown lag (-1: down or resyncing replicas, or
// no replicas at all) is not a sample.
func startLagSampler(client *http.Client, base string, deadline time.Time) *lagSampler {
	s := &lagSampler{done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for time.Now().Before(deadline) {
			<-tick.C
			resp, err := client.Get(base + "/api/cluster/status")
			if err != nil {
				continue
			}
			var st struct {
				MaxLagBytes int64 `json:"maxLagBytes"`
			}
			err = json.NewDecoder(resp.Body).Decode(&st)
			resp.Body.Close()
			if err != nil || st.MaxLagBytes < 0 {
				continue
			}
			s.samples++
			if st.MaxLagBytes > s.maxLag {
				s.maxLag = st.MaxLagBytes
			}
		}
	}()
	return s
}

// wait blocks until the sampler's window closes and returns the worst
// lag observed and how many samples informed it.
func (s *lagSampler) wait() (maxLag, samples int64) {
	<-s.done
	return s.maxLag, s.samples
}

// reshardReport is the slice of the coordinator's reshard report the
// artifact records.
type reshardReport struct {
	FromShards      int     `json:"fromShards"`
	ToShards        int     `json:"toShards"`
	MovedClips      int     `json:"movedClips"`
	MovedFraction   float64 `json:"movedFraction"`
	Retries         int     `json:"retries"`
	CutoverSeconds  float64 `json:"cutoverSeconds"`
	DualReadSeconds float64 `json:"dualReadSeconds"`
	TotalSeconds    float64 `json:"totalSeconds"`
	Error           string  `json:"error"`
}

type reshardOutcome struct {
	rep reshardReport
	err error
}

// postReshard drives one online membership change. It uses its own
// generously-timed client: a migration is a batch operation that may
// well outlast the per-request timeout of the load client.
func postReshard(base, body string) reshardOutcome {
	client := &http.Client{Timeout: 5 * time.Minute}
	resp, err := client.Post(base+"/api/cluster/reshard", "application/json", strings.NewReader(body))
	if err != nil {
		return reshardOutcome{err: err}
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return reshardOutcome{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return reshardOutcome{err: fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))}
	}
	var rep reshardReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return reshardOutcome{err: fmt.Errorf("decoding reshard report: %w", err)}
	}
	if rep.Error != "" {
		return reshardOutcome{err: fmt.Errorf("reshard reported failure: %s", rep.Error)}
	}
	return reshardOutcome{rep: rep}
}

// feature is one shot's queryable coordinates.
type feature struct{ varBA, varOA float64 }

// fetchFeatures walks /api/clips and each clip's shot table so the
// load phase can query around real feature vectors. An empty database
// is served with synthetic coordinates instead.
func fetchFeatures(client *http.Client, base string) ([]feature, error) {
	resp, err := client.Get(base + "/api/clips")
	if err != nil {
		return nil, fmt.Errorf("probing %s: %w", base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("probing %s: status %d", base, resp.StatusCode)
	}
	var clips []struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&clips); err != nil {
		return nil, fmt.Errorf("probing %s: %w", base, err)
	}

	var feats []feature
	for _, c := range clips {
		r, err := client.Get(base + "/api/clips/" + url.PathEscape(c.Name))
		if err != nil {
			return nil, fmt.Errorf("fetching clip %q: %w", c.Name, err)
		}
		var detail struct {
			ShotTable []struct {
				VarBA float64 `json:"varBA"`
				VarOA float64 `json:"varOA"`
			} `json:"shotTable"`
		}
		err = json.NewDecoder(r.Body).Decode(&detail)
		r.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("fetching clip %q: %w", c.Name, err)
		}
		for _, s := range detail.ShotTable {
			feats = append(feats, feature{s.VarBA, s.VarOA})
		}
	}
	if len(feats) == 0 {
		// Empty server: spread synthetic coordinates over the plausible
		// variance range so queries still exercise the index path.
		for i := 0; i < 64; i++ {
			feats = append(feats, feature{float64(i), float64(i) / 4})
		}
	}
	return feats, nil
}

// loadWorker issues requests until the deadline, tallying into st.
// A non-zero st.pace sleeps between requests (a well-behaved client);
// st.clientKey rides every request as the X-Videodb-Client header.
func loadWorker(client *http.Client, base string, feats []feature, batchSize int, seed uint64, deadline time.Time, st *workerStats) {
	r := rng.New(seed)
	for time.Now().Before(deadline) {
		roll := r.Float64()
		switch {
		case batchSize > 0 && roll < 0.10:
			st.doBatch(client, base, feats, batchSize, r)
		case roll < 0.20:
			st.do(client, st.clips, http.MethodGet, base+"/api/clips", nil)
		default:
			f := feats[r.Intn(len(feats))]
			u := fmt.Sprintf("%s/api/query?varba=%g&varoa=%g",
				base, jitter(r, f.varBA), jitter(r, f.varOA))
			st.do(client, st.query, http.MethodGet, u, nil)
		}
		if st.pace > 0 {
			time.Sleep(st.pace)
		}
	}
}

// doBatch posts one batch of jittered feature queries.
func (st *workerStats) doBatch(client *http.Client, base string, feats []feature, n int, r *rng.RNG) {
	qs := make([]map[string]float64, n)
	for i := range qs {
		f := feats[r.Intn(len(feats))]
		qs[i] = map[string]float64{
			"varba": jitter(r, f.varBA),
			"varoa": jitter(r, f.varOA),
		}
	}
	body, _ := json.Marshal(map[string]any{"queries": qs})
	st.do(client, st.batch, http.MethodPost, base+"/api/query/batch", body)
	st.batchedQueries += int64(n)
}

// do issues one request, draining the body so connections are reused,
// and records latency and status class.
func (st *workerStats) do(client *http.Client, hist *obs.Histogram, method, u string, body []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		st.requests++
		st.byClass[0]++
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if st.clientKey != "" {
		req.Header.Set("X-Videodb-Client", st.clientKey)
	}
	t0 := time.Now()
	resp, err := client.Do(req)
	st.requests++
	if err != nil {
		st.byClass[0]++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	hist.RecordDuration(time.Since(t0))
	// A 429 is the server shedding load on purpose — admission control
	// working, not the service failing — so it is tallied apart from
	// the 4xx class and excluded from the error rate.
	if resp.StatusCode == http.StatusTooManyRequests {
		st.shed++
	} else if c := resp.StatusCode / 100; c >= 1 && c <= 5 {
		st.byClass[c]++
	}
	if resp.Header.Get("X-Videodb-Partial") == "true" {
		st.partial++
	}
}
