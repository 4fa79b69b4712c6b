package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"videodb/internal/core"
	"videodb/internal/varindex"
)

// servingWorkload is what node_narrow, cluster_wide and store_rw each
// supply; runServing drives all three through the same phases.
type servingWorkload interface {
	// inputs generates the run's inputs from the base records.
	inputs(base []*core.ClipRecord) error
	// boot builds the whole system from the inputs, up to its first
	// verified answer, replacing any system an earlier boot built.
	boot() error
	// prepare builds the oracle, the request pools and whatever else
	// must exist before clients start; it runs once, after the last boot.
	prepare() error
	// target is the base URL clients talk to and precheck the queries
	// that must match the oracle entry for entry before timing.
	target() string
	precheck() []queryPoint
	// oracle answers q on the union database, bypassing every cache.
	oracle(q queryPoint) ([]core.Match, error)
	// classes names the request types; roles picks the two behind the
	// op_* and alt_* metrics (alt < 0: filled by background work).
	classes() []string
	roles() (op, alt int)
	// clients returns n closed-loop request generators.
	clients(n int) []func() op
	// background starts the workload's open-loop side for the given
	// span, if it has one, and returns a wait function.
	background(origin time.Time, total time.Duration) func() error
	// settle verifies deferred checks and folds background results in.
	settle(res *result, clients [][]sample, warm time.Duration)
	// ladder is the traced run's per-layer measurement.
	ladder(tr *tracer, res *result, budget time.Duration) error
	// epilogue runs after the clients stopped (durability checks).
	epilogue(res *result, tr *tracer) error
	stop()
}

// readOnly supplies the phases a workload without an open-loop side or
// a restart has nothing to do in.
type readOnly struct{}

func (readOnly) background(time.Time, time.Duration) func() error {
	return func() error { return nil }
}
func (readOnly) settle(*result, [][]sample, time.Duration) {}
func (readOnly) epilogue(*result, *tracer) error           { return nil }

// queryPoint is one similarity query; zero tolerances mean the
// server's defaults (α = β = 1.0).
type queryPoint struct {
	VarBA, VarOA float64
	Alpha, Beta  float64
}

func (q queryPoint) query() varindex.Query {
	return varindex.Query{VarBA: q.VarBA, VarOA: q.VarOA}
}

func (q queryPoint) options() varindex.Options {
	o := varindex.DefaultOptions()
	if q.Alpha > 0 {
		o.Alpha, o.Beta = q.Alpha, q.Beta
	}
	return o
}

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// path is the request path and query string, exact to the last bit
// so the server and the oracle see the same numbers.
func (q queryPoint) path() string {
	p := "/api/query?varba=" + ftoa(q.VarBA) + "&varoa=" + ftoa(q.VarOA)
	if q.Alpha > 0 {
		p += "&alpha=" + ftoa(q.Alpha) + "&beta=" + ftoa(q.Beta)
	}
	return p
}

// around returns a query point near a random shot of the corpus.
func around(feats []featPoint, r *rng, tol float64) queryPoint {
	f := feats[r.intn(len(feats))]
	return queryPoint{VarBA: r.jitter(f.VarBA, 0.2), VarOA: r.jitter(f.VarOA, 0.2), Alpha: tol, Beta: tol}
}

func treePath(name string) string { return "/api/clips/" + url.PathEscape(name) + "/tree" }
func clipPath(name string) string { return "/api/clips/" + url.PathEscape(name) }

// matchJSON is the slice of a query answer the oracle check compares.
type matchJSON struct {
	Clip  string  `json:"clip"`
	Shot  int     `json:"shot"`
	Start int     `json:"start"`
	End   int     `json:"end"`
	VarBA float64 `json:"varBA"`
	VarOA float64 `json:"varOA"`
	Scene string  `json:"scene"`
}

// decodeMatches reads a query answer in either shape: a single node's
// bare array or a coordinator's {"matches": [...]} wrapper.
func decodeMatches(body []byte) ([]matchJSON, error) {
	var bare []matchJSON
	if err := json.Unmarshal(body, &bare); err == nil {
		return bare, nil
	}
	var wrapped struct {
		Matches []matchJSON `json:"matches"`
	}
	if err := json.Unmarshal(body, &wrapped); err != nil {
		return nil, err
	}
	return wrapped.Matches, nil
}

// sameAnswer compares an HTTP answer with the oracle's entry for
// entry and in order.
func sameAnswer(got []matchJSON, want []core.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, oracle has %d", len(got), len(want))
	}
	for i, w := range want {
		g, scene := got[i], ""
		if w.Scene != nil {
			scene = w.Scene.Name()
		}
		e := w.Entry
		if g.Clip != e.Clip || g.Shot != e.Shot || g.Start != e.Start || g.End != e.End ||
			g.VarBA != e.VarBA || g.VarOA != e.VarOA || g.Scene != scene {
			return fmt.Errorf("match %d is %s#%d (%s), oracle has %s#%d (%s)",
				i, g.Clip, g.Shot, g.Scene, e.Clip, e.Shot, scene)
		}
	}
	return nil
}

// verifyQueries sends each query to base and holds the answers to the
// oracle. It returns how many differ.
func verifyQueries(hc *http.Client, base string, qs []queryPoint, oracle func(queryPoint) ([]core.Match, error), log func(string, ...any)) (bad int, err error) {
	c := newCaller(hc)
	for _, q := range qs {
		want, err := oracle(q)
		if err != nil {
			return bad, err
		}
		if _, ok := c.do(op{Method: http.MethodGet, URL: base + q.path()}); !ok {
			log("precheck: %v", c.LastErr)
			bad++
			continue
		}
		got, err := decodeMatches(c.buf.Bytes())
		if err == nil {
			err = sameAnswer(got, want)
		}
		if err != nil {
			log("precheck %s: %v", q.path(), err)
			bad++
		}
	}
	return bad, nil
}

// prepareBase synthesizes the Table-5 pixels, ingests them once and
// drops them: serving workloads only need the records.
func prepareBase(sz sizing) ([]*core.ClipRecord, error) {
	clips, err := synthCorpus(sz)
	if err != nil {
		return nil, err
	}
	return baseRecords(clips)
}

func runServing(cfg runConfig, w servingWorkload) (*result, error) {
	res := newResult(cfg.Workload)
	defer w.stop()

	t0 := time.Now()
	base, err := prepareBase(cfg.Size)
	if err != nil {
		return nil, err
	}
	if err := w.inputs(base); err != nil {
		return nil, err
	}
	inputsS := time.Since(t0).Seconds()

	setups := cfg.Size.Setups
	if cfg.Trace {
		setups = 1
	}
	setup, err := repeatSetup(setups, w.boot)
	if err != nil {
		return nil, err
	}
	// Before the oracle exists: it is the bench's, not the system's.
	heap := liveHeapMiB()
	if err := w.prepare(); err != nil {
		return nil, err
	}
	hc := newHTTPClient(nproc() + 1)
	defer hc.CloseIdleConnections()
	bad, err := verifyQueries(hc, w.target(), w.precheck(), w.oracle, cfg.logf)
	if err != nil {
		return nil, err
	}
	res.fail(bad, "answer differs from the oracle before timing", cfg.logf)
	cfg.logf("inputs %.2fs, set-up %.2fs (median of %d), %d prechecked queries", inputsS, setup, setups, len(w.precheck()))

	if cfg.Trace {
		res.Metrics["gen.inputs_s"] = inputsS
		return res, traceServing(cfg, w, hc, res)
	}

	origin := time.Now()
	total := cfg.warmup() + cfg.window()
	wait := w.background(origin, total)
	samples, callers := closedLoop(hc, origin, origin.Add(total), w.clients(nproc()))
	if err := wait(); err != nil {
		return nil, err
	}
	win := measure(samples, cfg.warmup(), mixLen)
	res.Attempted += win.Completed
	res.failed(cfg.logf, callers...)
	res.classes(w.classes(), win)
	w.settle(res, samples, cfg.warmup())
	if err := w.epilogue(res, nil); err != nil {
		return nil, err
	}

	opC, altC := w.roles()
	res.Metrics["setup_s"] = setup
	res.Metrics["ops_per_s"] = win.OpsPerSec
	res.Metrics["op_p50_ms"] = bestLatency(win.SliceP50[opC])
	if altC >= 0 {
		res.Metrics["alt_p50_ms"] = bestLatency(win.SliceP50[altC])
	}
	res.Metrics["heap_live_mb"] = heap
	return res, nil
}

// traceServing is the traced run: one client for half the window,
// every second request wrapped in a span, then the workload's ladder.
// Traced and untraced requests alternate in one loop so both see the
// same system state; the ratio of their rates is the tracing overhead.
func traceServing(cfg runConfig, w servingWorkload, hc *http.Client, res *result) error {
	tr := newTracer()
	half := cfg.window() / 2
	origin := time.Now()
	wait := w.background(origin, half)
	nextOp := w.clients(1)[0]
	names := w.classes()
	opClass, _ := w.roles()
	c := newCaller(hc)
	var samples []sample
	// busy[0] and n[0] sum the untraced requests of the op role, [1] the
	// traced ones; other request types would only add mix noise.
	var busy [2]time.Duration
	var n [2]float64
	deadline := origin.Add(half)
	for req := 1; time.Now().Before(deadline); req++ {
		o := nextOp()
		traced := req % 2
		t0 := time.Now()
		got, ok := c.do(o)
		if ok && traced == 1 {
			tr.add("client."+names[o.Class], 0, req, t0, time.Now())
		}
		t1 := time.Now()
		if !ok {
			continue
		}
		if o.Class == opClass {
			busy[traced] += t1.Sub(t0)
			n[traced]++
		}
		samples = append(samples, o.done(origin, t0, t1, got))
	}
	if err := wait(); err != nil {
		return err
	}
	win := measure([][]sample{samples}, 0, mixLen)
	res.Attempted += win.Completed
	res.failed(cfg.logf, c)
	tr.count("requests.untraced", n[0])
	tr.count("requests.traced", n[1])
	res.Metrics["trace.overhead_ratio"] = ratio(n[1]*busy[0].Seconds(), n[0]*busy[1].Seconds())
	res.classes(names, win)
	w.settle(res, [][]sample{samples}, 0)
	for _, name := range []string{"query", "browse", "write"} {
		if d, ok := res.Classes[name]; ok {
			res.Metrics["class."+name+"_p50_ms"] = d.P50
			if d.TailPct == 99 { // withheld (0) below 1,000 samples
				res.Metrics["class."+name+"_p99_ms"] = d.Tail
			}
		}
	}
	if err := w.ladder(tr, res, half); err != nil {
		return err
	}
	if err := w.epilogue(res, tr); err != nil {
		return err
	}
	return tr.write(cfg)
}
