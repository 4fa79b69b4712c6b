package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"videodb/internal/rng"
)

// config parameterizes a load run.
type config struct {
	Target      string
	Concurrency int
	Duration    time.Duration
	// Cluster marks the target a vdbcoord coordinator: degraded
	// (partial) answers are counted via the X-Videodb-Partial header,
	// and /api/cluster/status is sampled for replication lag during the
	// run and probed for shard count and coordinator counters after it.
	Cluster bool
	// Chaos runs the overload scenario (implies Cluster): the
	// Concurrency workers become well-behaved clients — each pacing
	// itself and carrying a distinct X-Videodb-Client key — while an
	// extra pool of abusive workers hammers the target unpaced, all
	// sharing one client key. Headline counters cover only the healthy
	// workers (the "zero 5xx on healthy traffic" assertion); the abuser
	// is tallied separately as abuse_*.
	Chaos bool
	// Reshard, when non-empty, is a JSON body POSTed to the
	// coordinator's /api/cluster/reshard at ReshardAt of the run — an
	// online membership change under full load. Its report lands in the
	// result as reshard_* counters, and a failed reshard fails the run.
	Reshard   string
	ReshardAt float64
}

// The fixed request mix: one seed for a reproducible query stream, and
// batches of batchSize queries on ~10% of requests.
const (
	seed      = 1
	batchSize = 16
)

// Chaos-scenario pacing: each well-behaved worker sleeps healthyPace
// between requests (≤ ~40 req/s per worker), so a per-client rate
// limit above that never sheds healthy traffic; the abusive pool runs
// unpaced with abuseWorkers goroutines on one shared client key.
const (
	healthyPace  = 25 * time.Millisecond
	abuseWorkers = 4
)

// tally is one load worker's private count; workers never share state
// while the clock runs, so the hot loop takes no locks.
type tally struct {
	byClass   [6]int64 // index status/100; 0 = transport error
	requests  int64
	partial   int64 // answers flagged X-Videodb-Partial: true
	shed      int64 // 429 answers: admission shed, not failure
	clientKey string
	pace      time.Duration
}

func (t *tally) add(o *tally) {
	for i, c := range o.byClass {
		t.byClass[i] += c
	}
	t.requests += o.requests
	t.partial += o.partial
	t.shed += o.shed
}

// run drives the target with Concurrency workers for Duration, mixing
// single queries (~80%), clip listings (~10%) and batch queries (~10%).
// Queries jitter around real shot features fetched from the target
// before the clock starts. It writes a one-line summary and then the
// result object, as the last line, to out.
func run(cfg config, out io.Writer) error {
	if cfg.Concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1")
	}
	cluster := cfg.Cluster || cfg.Chaos
	base := strings.TrimRight(cfg.Target, "/")
	client := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency * 2,
			MaxIdleConnsPerHost: cfg.Concurrency * 2,
		},
	}
	defer client.CloseIdleConnections()

	feats, err := fetchFeatures(client, base)
	if err != nil {
		return err
	}

	deadline := time.Now().Add(cfg.Duration)
	var healthy, abuse []*tally
	var wg sync.WaitGroup
	start := time.Now()

	// Replication lag is bursty — a post-run probe only sees wherever
	// the replicas happen to be once the load stops — so in cluster
	// mode a sampler polls the status endpoint throughout the run and
	// the result reports the worst lag observed, not the last.
	var sampler *lagSampler
	if cluster {
		sampler = startLagSampler(client, base, deadline)
	}
	var reshardC chan reshardOutcome
	if cfg.Reshard != "" {
		reshardC = make(chan reshardOutcome, 1)
		go func() {
			time.Sleep(time.Duration(cfg.ReshardAt * float64(cfg.Duration)))
			reshardC <- postReshard(base, cfg.Reshard)
		}()
	}
	spawn := func(t *tally, batch int, workerSeed uint64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loadWorker(client, base, feats, batch, workerSeed, deadline, t)
		}()
	}
	for w := 0; w < cfg.Concurrency; w++ {
		t := &tally{}
		if cfg.Chaos {
			t.clientKey = fmt.Sprintf("bench-w%d", w)
			t.pace = healthyPace
		}
		healthy = append(healthy, t)
		spawn(t, batchSize, seed+uint64(w)*7919)
	}
	if cfg.Chaos {
		// The abusive pool: unpaced workers all presenting one client
		// key, so per-client admission sheds them while the keyed,
		// paced workers above sail through.
		for w := 0; w < abuseWorkers; w++ {
			t := &tally{clientKey: "abuser"}
			abuse = append(abuse, t)
			spawn(t, 0, seed+1e6+uint64(w)*104729)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	var total, abused tally
	for _, t := range healthy {
		total.add(t)
	}
	for _, t := range abuse {
		abused.add(t)
	}
	if total.requests == 0 {
		return fmt.Errorf("no requests completed against %s", base)
	}

	res := map[string]float64{
		"requests":         float64(total.requests),
		"requests_per_sec": float64(total.requests) / elapsed.Seconds(),
		"http_4xx":         float64(total.byClass[4]),
		"http_5xx":         float64(total.byClass[5]),
		"transport_errors": float64(total.byClass[0]),
		"shed_rate":        float64(total.shed) / float64(total.requests),
	}
	fmt.Fprintf(out, "%d requests in %v — %.0f req/s, %d 5xx, %d 4xx, %d shed, %d transport errors, %d partial\n",
		total.requests, elapsed.Round(time.Millisecond), res["requests_per_sec"],
		total.byClass[5], total.byClass[4], total.shed, total.byClass[0], total.partial)

	if cluster {
		res["partial_answers"] = float64(total.partial)
		if err := clusterStatus(client, base, res); err != nil {
			return fmt.Errorf("cluster status probe: %w", err)
		}
		if maxLag, samples := sampler.wait(); samples > 0 {
			res["replication_lag_bytes_max"] = float64(maxLag)
		}
	}
	if cfg.Chaos {
		res["abuse_requests"] = float64(abused.requests)
		res["abuse_shed"] = float64(abused.shed)
		res["abuse_5xx"] = float64(abused.byClass[5])
		fmt.Fprintf(out, "abuser: %d requests, %d shed, %d 5xx\n",
			abused.requests, abused.shed, abused.byClass[5])
	}
	if reshardC != nil {
		// The membership change may outlast the load window; the run is
		// not over until its outcome is known.
		oc := <-reshardC
		if oc.err != nil {
			return fmt.Errorf("mid-run reshard failed: %w", oc.err)
		}
		fmt.Fprintf(out, "reshard: %d->%d shards, %d clips moved (%.1f%% of keyspace), barrier %.0fms, dual-read window %.0fms\n",
			oc.rep.FromShards, oc.rep.ToShards, oc.rep.MovedClips, 100*oc.rep.MovedFraction,
			oc.rep.CutoverSeconds*1e3, oc.rep.DualReadSeconds*1e3)
		res["reshard_moved_clips"] = float64(oc.rep.MovedClips)
		res["reshard_cutover_seconds"] = oc.rep.CutoverSeconds
		res["reshard_dual_read_seconds"] = oc.rep.DualReadSeconds
	}

	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// clusterStatus probes the coordinator's status endpoint after a run and
// copies its shard count and retry/hedge counters into res.
func clusterStatus(client *http.Client, base string, res map[string]float64) error {
	resp, err := client.Get(base + "/api/cluster/status")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d (is the target a vdbcoord?)", resp.StatusCode)
	}
	var st struct {
		Shards    []struct{} `json:"shards"`
		Fetches   int64      `json:"fetches"`
		Retries   int64      `json:"retries"`
		Hedges    int64      `json:"hedges"`
		HedgeWins int64      `json:"hedgeWins"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	res["cluster_shards"] = float64(len(st.Shards))
	res["coord_fetches"] = float64(st.Fetches)
	res["coord_retries"] = float64(st.Retries)
	res["coord_hedges"] = float64(st.Hedges)
	res["coord_hedge_wins"] = float64(st.HedgeWins)
	return nil
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
// driver prints and records.
type reshardReport struct {
	FromShards      int     `json:"fromShards"`
	ToShards        int     `json:"toShards"`
	MovedClips      int     `json:"movedClips"`
	MovedFraction   float64 `json:"movedFraction"`
	CutoverSeconds  float64 `json:"cutoverSeconds"`
	DualReadSeconds float64 `json:"dualReadSeconds"`
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

// jitter perturbs a (non-negative) variance by ±20%.
func jitter(r *rng.RNG, v float64) float64 { return v * r.Float64Range(0.8, 1.2) }

// loadWorker issues requests until the deadline, tallying into t; batch
// 0 leaves batch queries out of the mix. A non-zero t.pace sleeps
// between requests (a well-behaved client); t.clientKey rides every
// request as the X-Videodb-Client header.
func loadWorker(client *http.Client, base string, feats []feature, batch int, seed uint64, deadline time.Time, t *tally) {
	r := rng.New(seed)
	for time.Now().Before(deadline) {
		roll := r.Float64()
		switch {
		case batch > 0 && roll < 0.10:
			qs := make([]map[string]float64, batch)
			for i := range qs {
				f := feats[r.Intn(len(feats))]
				qs[i] = map[string]float64{"varba": jitter(r, f.varBA), "varoa": jitter(r, f.varOA)}
			}
			body, _ := json.Marshal(map[string]any{"queries": qs})
			t.do(client, http.MethodPost, base+"/api/query/batch", body)
		case roll < 0.20:
			t.do(client, http.MethodGet, base+"/api/clips", nil)
		default:
			f := feats[r.Intn(len(feats))]
			t.do(client, http.MethodGet, fmt.Sprintf("%s/api/query?varba=%g&varoa=%g",
				base, jitter(r, f.varBA), jitter(r, f.varOA)), nil)
		}
		if t.pace > 0 {
			time.Sleep(t.pace)
		}
	}
}

// do issues one request, draining the body so connections are reused,
// and records its status class.
func (t *tally) do(client *http.Client, method, u string, body []byte) {
	t.requests++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		t.byClass[0]++
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if t.clientKey != "" {
		req.Header.Set("X-Videodb-Client", t.clientKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.byClass[0]++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// A 429 is the server shedding load on purpose — admission control
	// working, not the service failing — so it is tallied apart from
	// the 4xx class.
	if resp.StatusCode == http.StatusTooManyRequests {
		t.shed++
	} else if c := resp.StatusCode / 100; c >= 1 && c <= 5 {
		t.byClass[c]++
	}
	if resp.Header.Get("X-Videodb-Partial") == "true" {
		t.partial++
	}
}
