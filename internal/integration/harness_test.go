package integration

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"videodb/internal/admission"
	"videodb/internal/cluster"
	"videodb/internal/experiments"
	"videodb/internal/rng"
	"videodb/internal/server"
	"videodb/internal/store"
)

// processTestsEnv gates the process tests (process_test.go): they build
// and start real binaries on fixed loopback ports and run for about
// fifteen seconds each, so tier-1 runs without them.
const processTestsEnv = "VIDEODB_PROCESS_TESTS"

// binDir holds vdbserver and vdbcoord once TestMain has built them; it
// stays empty when the process tests are off.
var binDir string

func TestMain(m *testing.M) { os.Exit(runTests(m)) }

func runTests(m *testing.M) int {
	if os.Getenv(processTestsEnv) != "1" {
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "videodb-process-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	// An -o naming a directory gets one binary per main package.
	build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"videodb/cmd/vdbserver", "videodb/cmd/vdbcoord")
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building vdbserver and vdbcoord: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// procSet is one process test's running binaries. Each writes its
// output to bench-out/<name>-smoke/<proc>.log at the module root, the
// path CI uploads when a smoke job fails; segment stores live in a
// temporary directory.
type procSet struct {
	t       *testing.T
	ctx     context.Context
	logDir  string
	dataDir string
	cmds    []*exec.Cmd
	logs    []*os.File
}

// startProcSet skips t unless the process tests are on, and otherwise
// empties t's log directory. At cleanup every process still running
// gets SIGTERM, and on failure t logs the tail of each process's log.
func startProcSet(t *testing.T, name string) *procSet {
	t.Helper()
	if binDir == "" {
		t.Skipf("set %s=1 to run the process tests", processTestsEnv)
	}
	logDir := filepath.Join("..", "..", "bench-out", name+"-smoke")
	if err := os.RemoveAll(logDir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &procSet{t: t, ctx: ctx, logDir: logDir, dataDir: t.TempDir()}
	t.Cleanup(func() {
		cancel()
		p.wait()
	})
	return p
}

// data names a segment-store directory for one process.
func (p *procSet) data(proc string) string { return filepath.Join(p.dataDir, proc) }

// start runs bin with args. Cancelling the set sends SIGTERM, the
// signal the shell's kill sent, and SIGKILL if the process is still
// there ten seconds later.
func (p *procSet) start(proc, bin string, args ...string) *exec.Cmd {
	p.t.Helper()
	f, err := os.Create(filepath.Join(p.logDir, proc+".log"))
	if err != nil {
		p.t.Fatal(err)
	}
	cmd := exec.CommandContext(p.ctx, filepath.Join(binDir, bin), args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 10 * time.Second
	if err := cmd.Start(); err != nil {
		f.Close()
		p.t.Fatalf("starting %s: %v", proc, err)
	}
	p.cmds = append(p.cmds, cmd)
	p.logs = append(p.logs, f)
	return cmd
}

func (p *procSet) wait() {
	for i, cmd := range p.cmds {
		// A process stopped by SIGTERM reports how it ended; that is
		// not a finding, the assertions before it are.
		_ = cmd.Wait()
		p.logs[i].Close()
		if p.t.Failed() {
			p.logTail(p.logs[i].Name())
		}
	}
}

func (p *procSet) logTail(path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		p.t.Log(err)
		return
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	lines = lines[max(0, len(lines)-20):]
	p.t.Logf("last lines of %s:\n%s", path, strings.Join(lines, "\n"))
}

// ring answers vdbcoord's -shard flags: the first shard with its
// replica, then the others alone.
func ring(replica string, shards ...string) []string {
	args := []string{"-shard", "http://" + shards[0] + ",http://" + replica}
	for _, s := range shards[1:] {
		args = append(args, "-shard", "http://"+s)
	}
	return args
}

// eventually polls cond every 50 ms for up to 20 s, the smokes' wait.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: not within 20 s", what)
		}
	}
}

func waitReady(t *testing.T, addrs ...string) {
	t.Helper()
	for _, a := range addrs {
		eventually(t, a+" healthy", func() bool {
			_, err := request(http.MethodGet, "http://"+a+"/api/health", nil)
			return err == nil
		})
	}
}

// waitCaughtUp waits until one coordinator status shows the shard
// primaries holding the clips ingested clips between them, every
// replica holding as many as its primary, and every replica at 0 bytes
// of lag. Lag 0 alone is not enough: it is computed from the last
// probes, and probes taken before the last upload report a replica
// that has yet to apply it as caught up, so its bounded-staleness
// reads would miss that clip.
func waitCaughtUp(t *testing.T, coord string, clips int) {
	t.Helper()
	eventually(t, "replica catch-up (every clip on every replica, maxLagBytes 0)", func() bool {
		var st cluster.StatusJSON
		if tryGetJSON(coord+"/api/cluster/status", &st) != nil || st.MaxLagBytes != 0 {
			return false
		}
		held := 0
		for _, sh := range st.Shards {
			primary := -1
			for _, n := range sh.Nodes {
				if n.Role == "primary" {
					primary = n.Clips
				}
			}
			for _, n := range sh.Nodes {
				if n.Clips != primary {
					return false
				}
			}
			held += primary
		}
		return held == clips
	})
}

var client = &http.Client{Timeout: 30 * time.Second}

// request answers the body of one request; a status of 400 or more is
// an error, as it was to curl -f.
func request(method, u string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, u, err)
	}
	if resp.StatusCode >= 400 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, u, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func fetch(t *testing.T, method, u string, body []byte) []byte {
	t.Helper()
	data, err := request(method, u, body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func tryGetJSON(u string, v any) error {
	data, err := request(http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	if err := tryGetJSON(u, v); err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
}

// metric reads one unlabelled sample from a node's /api/metrics,
// truncated to an integer; an absent series reads 0.
func metric(t *testing.T, node, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(string(fetch(t, http.MethodGet, node+"/api/metrics", nil)), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("%s %s: %v", node, name, err)
			}
			return int64(v)
		}
	}
	return 0
}

// queryMatches answers GET /api/query?q as compact JSON, null read as
// []: the "matches" member of a coordinator's answer (wrapped), or a
// node's bare match array.
func queryMatches(base, q string, wrapped bool) ([]byte, error) {
	body, err := request(http.MethodGet, base+"/api/query?"+q, nil)
	if err != nil {
		return nil, err
	}
	if wrapped {
		var ans map[string]json.RawMessage
		if err := json.Unmarshal(body, &ans); err != nil {
			return nil, err
		}
		body = ans["matches"]
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return nil, fmt.Errorf("%s/api/query?%s: %w", base, q, err)
	}
	if buf.String() == "null" {
		return []byte("[]"), nil
	}
	return buf.Bytes(), nil
}

// shotTable reads one clip's shot table from base's GET /api/clips/{name}.
func shotTable(t *testing.T, base, name string) []server.ShotJSON {
	t.Helper()
	var detail struct {
		ShotTable []server.ShotJSON `json:"shotTable"`
	}
	getJSON(t, base+"/api/clips/"+url.PathEscape(name), &detail)
	return detail.ShotTable
}

// ingestCorpus renders the 22-clip Table-5 corpus at scale 0.02 and
// uploads each clip, in file-name order, to every base in turn. It
// answers the names the clips were ingested as, in that order.
// Rendering dominates the set-up, so the clips render on every CPU
// before the first upload.
func ingestCorpus(t *testing.T, bases ...string) []string {
	t.Helper()
	defs := experiments.Table5Corpus()
	slices.SortFunc(defs, func(a, b experiments.ClipDef) int { return strings.Compare(slug(a.Name), slug(b.Name)) })
	vdbf := make([]bytes.Buffer, len(defs))
	errs := make([]error, len(defs))
	cpus := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, def := range defs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cpus <- struct{}{}
			defer func() { <-cpus }()
			clip, _, err := def.Build(0.02)
			if err == nil {
				err = store.WriteClip(&vdbf[i], clip)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	names := make([]string, len(defs))
	for i, def := range defs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", def.Name, errs[i])
		}
		names[i] = slug(def.Name)
		for _, base := range bases {
			fetch(t, http.MethodPost, base+"/api/clips?name="+url.QueryEscape(names[i]), vdbf[i].Bytes())
		}
	}
	return names
}

// slug is the file name synthgen writes a clip under, and so the name
// the clip is ingested as: lower-case letters and digits, every run of
// anything else one dash.
func slug(name string) string {
	var sb strings.Builder
	for _, r := range strings.ToLower(name) {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			sb.WriteRune(r)
		case sb.Len() > 0 && sb.String()[sb.Len()-1] != '-':
			sb.WriteByte('-')
		}
	}
	return strings.Trim(sb.String(), "-")
}

// The load's request mix and pacing. loadSeed seeds every worker's
// stream; a failed test prints it. Batch requests carry batchSize
// queries. In the chaos mix each healthy worker sleeps healthyPace
// between requests (at most ~40 req/s per worker, under the shards'
// per-client limit), while abuseWorkers unpaced workers share one
// client key.
const (
	loadSeed     = 1
	batchSize    = 16
	healthyPace  = 25 * time.Millisecond
	abuseWorkers = 4
)

// tally counts one worker's answers.
type tally struct {
	byClass  [6]int64 // index status/100; 0 = transport error
	requests int64
	partial  int64 // answers marked partial by the coordinator
	shed     int64 // 429s: admission shedding load, not failing
}

func (t *tally) add(o *tally) {
	for i, c := range o.byClass {
		t.byClass[i] += c
	}
	t.requests += o.requests
	t.partial += o.partial
	t.shed += o.shed
}

// worker is one load goroutine's settings and private tally; workers
// share nothing while the clock runs.
type worker struct {
	seed  uint64
	batch int           // queries per batch request; 0 sends none
	key   string        // the admission client key, when set
	pace  time.Duration // sleep between requests, when set
	tally
}

// loadResult is a run's healthy and abusive tallies, and the worst
// replica lag the coordinator reported during it.
type loadResult struct {
	healthy, abuse tally
	maxLag         int64
	lagSamples     int
}

// runLoad drives the coordinator at base with workers for d: ~80 %
// single queries, ~10 % listings and ~10 % batches, every query
// jittered ±20 % around a real shot's features. With chaos the workers
// are paced, each with its own client key, beside an unpaced abusive
// pool. A sampler reads the coordinator's maxLagBytes every 250 ms.
func runLoad(t *testing.T, base string, workers int, d time.Duration, chaos bool) loadResult {
	t.Helper()
	t.Cleanup(func() {
		if t.Failed() {
			t.Logf("load seed %d", loadSeed)
		}
	})
	var shots []server.ShotJSON
	var clips []server.ClipSummary
	getJSON(t, base+"/api/clips", &clips)
	for _, c := range clips {
		shots = append(shots, shotTable(t, base, c.Name)...)
	}
	if len(shots) == 0 {
		t.Fatalf("%s lists no shots to query around", base)
	}

	ws := make([]worker, workers)
	for i := range ws {
		ws[i] = worker{seed: loadSeed + uint64(i)*7919, batch: batchSize}
		if chaos {
			ws[i].key, ws[i].pace = fmt.Sprintf("bench-w%d", i), healthyPace
		}
	}
	if chaos {
		for i := range abuseWorkers {
			ws = append(ws, worker{seed: loadSeed + 1e6 + uint64(i)*104729, key: "abuser"})
		}
	}
	lc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        workers * 2,
			MaxIdleConnsPerHost: workers * 2,
		},
	}
	defer lc.CloseIdleConnections()

	var res loadResult
	deadline := time.Now().Add(d)
	start := time.Now()
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for time.Now().Before(deadline) {
			<-tick.C
			// Unknown lag (-1: a replica down or resyncing) is no sample.
			var st cluster.StatusJSON
			if tryGetJSON(base+"/api/cluster/status", &st) == nil && st.MaxLagBytes >= 0 {
				res.lagSamples++
				res.maxLag = max(res.maxLag, st.MaxLagBytes)
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[i].run(lc, base, shots, deadline)
		}()
	}
	wg.Wait()
	<-sampled
	for i := range ws {
		if i < workers {
			res.healthy.add(&ws[i].tally)
		} else {
			res.abuse.add(&ws[i].tally)
		}
	}
	h := res.healthy
	if h.requests == 0 {
		t.Fatalf("no requests completed against %s", base)
	}
	t.Logf("%d requests in %v: %d 5xx, %d 4xx, %d shed, %d transport errors, %d partial",
		h.requests, time.Since(start).Round(time.Millisecond), h.byClass[5], h.byClass[4], h.shed, h.byClass[0], h.partial)
	if chaos {
		t.Logf("abuser: %d requests, %d shed, %d 5xx", res.abuse.requests, res.abuse.shed, res.abuse.byClass[5])
	}
	return res
}

// jitter perturbs a non-negative variance by ±20 %.
func jitter(r *rng.RNG, v float64) float64 { return v * r.Float64Range(0.8, 1.2) }

func (w *worker) run(c *http.Client, base string, shots []server.ShotJSON, deadline time.Time) {
	r := rng.New(w.seed)
	for time.Now().Before(deadline) {
		roll := r.Float64()
		switch {
		case w.batch > 0 && roll < 0.10:
			var req server.BatchRequestJSON
			for range w.batch {
				s := shots[r.Intn(len(shots))]
				ba, oa := jitter(r, s.VarBA), jitter(r, s.VarOA)
				req.Queries = append(req.Queries, server.BatchQueryJSON{VarBA: &ba, VarOA: &oa})
			}
			body, _ := json.Marshal(req) // plain floats and strings: cannot fail
			w.do(c, http.MethodPost, base+"/api/query/batch", body)
		case roll < 0.20:
			w.do(c, http.MethodGet, base+"/api/clips", nil)
		default:
			s := shots[r.Intn(len(shots))]
			w.do(c, http.MethodGet, fmt.Sprintf("%s/api/query?varba=%g&varoa=%g",
				base, jitter(r, s.VarBA), jitter(r, s.VarOA)), nil)
		}
		if w.pace > 0 {
			time.Sleep(w.pace)
		}
	}
}

// do issues one request, draining the body so the connection is
// reused, and tallies its answer.
func (w *worker) do(c *http.Client, method, u string, body []byte) {
	w.requests++
	req, err := http.NewRequest(method, u, bytes.NewReader(body))
	if err != nil {
		w.byClass[0]++
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if w.key != "" {
		req.Header.Set(admission.ClientHeader, w.key)
	}
	resp, err := c.Do(req)
	if err != nil {
		w.byClass[0]++
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		w.shed++
	} else if k := resp.StatusCode / 100; k >= 1 && k <= 5 {
		w.byClass[k]++
	}
	if resp.Header.Get(cluster.HeaderPartial) == "true" {
		w.partial++
	}
}
