package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/segment"
	"videodb/internal/segstore"
	"videodb/internal/wal"
)

// store_rw: one node on a segment store with its WAL on (-sync
// interval, 1 s), pre-loaded with corpus_5k and flushed. A writer
// paced open-loop imports fresh replicas and deletes the oldest of
// them while one closed-loop reader queries and fetches cold trees;
// every FlushEvery acknowledged writes the store is flushed and
// compacted until nothing qualifies. Afterwards the directory is
// byte-copied without Close — a process crash — and reopened.
//
// Roles: op = narrow GET /api/query; alt = a write, timed from when it
// was due.

const (
	classStoreQuery = iota
	classStoreBrowse
)

// liveWrites is how many written clips exist before deletes begin.
const liveWrites = 32

// interval is a span of the run's timeline.
type interval struct{ Start, End time.Duration }

// writeObs is one acknowledged write on the run's timeline.
type writeObs struct {
	paced
	Due    time.Duration
	Span   interval // send → completion, for stall overlap
	Delete bool
}

// storeObs is what the open-loop side and the maintenance cycles
// observed; every field is written before wait() returns.
type storeObs struct {
	writes       []writeObs
	writeFailed  int
	writeErr     error
	payloadBytes float64
	present      map[string]bool // acknowledged imports not deleted since
	deleted      map[string]bool // acknowledged deletes

	maintenance  []interval
	flushMS      []float64
	compactMS    []float64
	flushBytes   float64
	compactBytes float64

	wal0, wal1   wal.Stats
	clip0, clip1 core.ClipCacheStats
}

type storeRW struct {
	cfg    runConfig
	r      *rng
	corpus *servingCorpus
	// nodeCounts[i] is the scene-tree size of base clip i; replica k of
	// the corpus shares the tree of base clip k mod len(nodeCounts).
	nodeCounts []int
	fresh      []clipPayload // what the writer imports, in order
	nextFresh  int
	live       []string // written clips not yet deleted, oldest first

	dirs []string
	sut  *storeSUT

	points  []queryPoint
	queries *readPool
	trees   *readPool
	zipf    *zipf
	obs     storeObs
}

func newStoreRW(cfg runConfig) *storeRW {
	return &storeRW{cfg: cfg, r: newRNG(cfg.Seed),
		obs: storeObs{present: map[string]bool{}, deleted: map[string]bool{}}}
}

// ladderImports is how many direct imports the traced ladder times.
const ladderImports = 200

func (w *storeRW) inputs(base []*core.ClipRecord) (err error) {
	if w.corpus, err = replicate(base, w.cfg.Size.Replicas, w.r.fork(0)); err != nil {
		return err
	}
	for _, rec := range base {
		w.nodeCounts = append(w.nodeCounts, rec.Tree.NodeCount())
	}
	total := (w.cfg.warmup() + w.cfg.window()).Seconds()
	n := int(total*float64(w.cfg.Size.WriteRate)) + ladderImports
	r := w.r.fork(1)
	for i := 0; i < n; i++ {
		p, err := encodeJittered(base[i%len(base)], fmt.Sprintf("%s%06d", writePrefix, i), r)
		if err != nil {
			return err
		}
		w.fresh = append(w.fresh, p.clipPayload)
	}
	return nil
}

func (w *storeRW) boot() error {
	w.stop()
	dir, err := scratchDir(w.cfg, "store")
	if err != nil {
		return err
	}
	w.dirs = append(w.dirs, dir)
	if w.sut, err = startStore(dir, w.corpus.Payloads); err != nil {
		return err
	}
	return firstAnswer(w.sut.URL, w.sut.DB.ShotCount(), w.corpus.Shots)
}

func (w *storeRW) prepare() (err error) {
	w.points, w.queries, err = narrowQueries(w.sut.DB, w.sut.URL, w.corpus.Features, w.r.fork(2), narrowPoolSize, w.cfg.Size)
	if err != nil {
		return err
	}
	w.zipf = newZipf(narrowPoolSize, zipfS)
	// Every flushed clip is a candidate: 1,496 names against a
	// 1,024-clip cache, so a share of the fetches decodes from the mmap.
	w.trees = &readPool{base: w.sut.URL}
	for i, p := range w.corpus.Payloads {
		w.trees.add(classStoreBrowse, treePath(p.Name), "repFrame", w.nodeCounts[i%len(w.nodeCounts)])
	}
	return nil
}

func (w *storeRW) target() string { return w.sut.URL }

func (w *storeRW) precheck() []queryPoint {
	return w.points[:min(w.cfg.Size.Precheck, len(w.points))]
}

func (w *storeRW) oracle(q queryPoint) ([]core.Match, error) {
	return w.sut.DB.QueryUncached(q.query(), q.options())
}

func (w *storeRW) classes() []string { return []string{"query", "browse"} }

func (w *storeRW) roles() (op, alt int) { return classStoreQuery, -1 }

// clients is the reader: 80 % narrow queries, 20 % tree fetches, in a
// fixed seeded pattern. Query counts were taken before any write and
// ignore written clips. The writer is one of the n load threads, so
// n-1 readers run beside it (one, on the 2 cores of record).
func (w *storeRW) clients(n int) []func() op {
	nexts := make([]func() op, max(n-1, 1))
	for i := range nexts {
		r := w.r.fork(uint64(100 + i))
		class := newMix([]int{classStoreQuery: 16, classStoreBrowse: 4}, r)
		nexts[i] = func() op {
			if class() == classStoreQuery {
				return w.queries.ops[w.zipf.sample(r)]
			}
			return w.trees.any(r)
		}
	}
	return nexts
}

// nextWrite alternates imports of fresh replicas with deletes of the
// oldest written clip once liveWrites of them exist.
func (w *storeRW) nextWrite(i int) (o op, name string, isDelete bool) {
	if i%2 == 1 && len(w.live) > liveWrites {
		name = w.live[0]
		return op{Method: http.MethodDelete, URL: w.sut.URL + clipPath(name)}, name, true
	}
	p := w.fresh[w.nextFresh]
	return op{Method: http.MethodPost, URL: w.sut.URL + "/api/replication/clip", Body: p.Data}, p.Name, false
}

// acked records an acknowledged write: from here on the store owes it.
func (w *storeRW) acked(name string, isDelete bool) {
	if isDelete {
		w.live = w.live[1:]
		delete(w.obs.present, name)
		w.obs.deleted[name] = true
		return
	}
	w.obs.payloadBytes += float64(len(w.fresh[w.nextFresh].Data))
	w.nextFresh++
	w.live = append(w.live, name)
	w.obs.present[name] = true
}

// background runs the paced writer for total and, beside it, the
// maintenance cycles its acknowledged writes trigger.
func (w *storeRW) background(origin time.Time, total time.Duration) func() error {
	n := int(total.Seconds() * float64(w.cfg.Size.WriteRate))
	pace := pacer{start: origin, interval: time.Second / time.Duration(w.cfg.Size.WriteRate)}
	triggers := make(chan struct{}, n/w.cfg.Size.FlushEvery+1) // one slot per flush the run can trigger
	var wg sync.WaitGroup
	var maintErr error
	w.obs.wal0 = w.sut.Store.Journal().Stats()
	w.obs.clip0 = w.sut.DB.ClipCacheStats()

	wg.Add(2)
	go func() {
		defer wg.Done()
		hc := newHTTPClient(1)
		defer hc.CloseIdleConnections()
		for range triggers {
			if err := w.maintain(hc, origin); err != nil && maintErr == nil {
				maintErr = err
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(triggers)
		hc := newHTTPClient(1)
		defer hc.CloseIdleConnections()
		c := newCaller(hc)
		acks := 0
		for i := 0; i < n; i++ {
			due := pace.due(i)
			waitUntil(due)
			o, name, isDelete := w.nextWrite(i)
			sent := time.Now()
			_, ok := c.do(o)
			done := time.Now()
			if !ok {
				continue
			}
			w.acked(name, isDelete)
			w.obs.writes = append(w.obs.writes, writeObs{pacedResult(due, sent, done),
				due.Sub(origin), interval{sent.Sub(origin), done.Sub(origin)}, isDelete})
			if acks++; acks%w.cfg.Size.FlushEvery == 0 {
				triggers <- struct{}{}
			}
		}
		w.obs.writeFailed, w.obs.writeErr = c.Failed, c.LastErr
	}()
	return func() error {
		wg.Wait()
		w.obs.wal1 = w.sut.Store.Journal().Stats()
		w.obs.clip1 = w.sut.DB.ClipCacheStats()
		return maintErr
	}
}

// maintain is one maintenance cycle: flush the memtable over the HTTP
// API, then compact until no run qualifies.
func (w *storeRW) maintain(hc *http.Client, origin time.Time) error {
	start := time.Now()
	c := newCaller(hc)
	if _, ok := c.do(op{Method: http.MethodPost, URL: w.sut.URL + "/api/snapshot"}); !ok {
		return fmt.Errorf("flush: %w", c.LastErr)
	}
	var flushed struct {
		Bytes float64 `json:"bytes"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &flushed); err != nil {
		return fmt.Errorf("flush answer: %w", err)
	}
	w.obs.flushMS = append(w.obs.flushMS, ms(time.Since(start)))
	w.obs.flushBytes += flushed.Bytes
	for {
		before := map[uint64]bool{}
		for _, s := range w.sut.Store.Manifest().Segments {
			before[s.ID] = true
		}
		t0 := time.Now()
		merged, err := w.sut.Store.CompactOnce()
		if err != nil {
			return fmt.Errorf("compaction: %w", err)
		}
		if !merged {
			break
		}
		w.obs.compactMS = append(w.obs.compactMS, ms(time.Since(t0)))
		for _, s := range w.sut.Store.Manifest().Segments {
			if !before[s.ID] {
				w.obs.compactBytes += float64(s.Bytes)
			}
		}
	}
	w.obs.maintenance = append(w.obs.maintenance, interval{start.Sub(origin), time.Since(origin)})
	return nil
}

// settle adds the writer's side to the result and finds the worst
// foreground operation that overlapped a maintenance cycle.
func (w *storeRW) settle(res *result, clients [][]sample, warm time.Duration) {
	o := &w.obs
	// Imports and deletes cost differently, so they are two request
	// types; the alt role is the import, the write that carries data.
	var imports, deletes, late []float64
	for _, p := range o.writes {
		late = append(late, ms(p.late))
		switch {
		case p.Due < warm:
		case p.Delete:
			deletes = append(deletes, ms(p.latency))
		default:
			imports = append(imports, ms(p.latency))
		}
	}
	res.Attempted += len(imports) + len(deletes) + o.writeFailed
	if o.writeFailed > 0 {
		res.fail(o.writeFailed, fmt.Sprintf("failed write, last: %v", o.writeErr), w.cfg.logf)
	}
	// An import allocates a view's worth of memory and so starts the
	// collection that slows it or the next one: about 4 in 10 take twice
	// as long, in runs that beat against the 20 ms write period, and a
	// median — of the window or of a slice — sits between the two modes.
	// The best decile of the latencies themselves is an import that met
	// neither a collection nor a busy host.
	res.Metrics["alt_p50_ms"] = bestLatency(imports)
	res.Classes["write"] = summarize(imports)
	res.Classes["delete"] = summarize(deletes)

	stall := 0.0
	overlaps := func(s, e time.Duration) bool {
		for _, m := range o.maintenance {
			if s < m.End && e > m.Start {
				return true
			}
		}
		return false
	}
	for _, samples := range clients {
		for _, s := range samples {
			if overlaps(s.Start, s.Start+s.Dur) {
				stall = max(stall, ms(s.Dur))
			}
		}
	}
	for _, p := range o.writes {
		if s := p.Span; overlaps(s.Start, s.End) {
			stall = max(stall, ms(s.End-s.Start))
		}
	}
	sort.Float64s(late)
	lateP99, _ := tail(late)

	m := res.Metrics
	m["gen.late_p99_ms"] = lateP99
	m["segstore.stall_max_ms"] = stall
	m["segstore.flush_ms"] = median(o.flushMS)
	m["segstore.flush_count"] = float64(len(o.flushMS))
	m["segstore.compact_ms"] = median(o.compactMS)
	m["segstore.compact_count"] = float64(len(o.compactMS))
	m["segstore.compact_bytes_rewritten"] = o.compactBytes
	m["wal.fsyncs"] = float64(o.wal1.Fsyncs - o.wal0.Fsyncs)
	m["wal.fsync_s"] = o.wal1.FsyncSeconds - o.wal0.FsyncSeconds
	hits := float64(o.clip1.Hits - o.clip0.Hits)
	m["core.clip_cache_hit_ratio"] = ratio(hits, hits+float64(o.clip1.Misses-o.clip0.Misses))
	w.cfg.logf("  writes %d acknowledged, generator late p99 %.3f ms; %d flushes (median %.1f ms), %d compactions (median %.1f ms, %.0f bytes rewritten), worst overlapped op %.2f ms",
		len(o.writes), lateP99, len(o.flushMS), median(o.flushMS), len(o.compactMS), median(o.compactMS), o.compactBytes, stall)
}

// ladder times the write path's layers with direct calls, after the
// open-loop side has stopped: ImportClipRecord on the serving
// database, and under it the same payload appended to a scratch
// journal opened with the store's sync policy.
func (w *storeRW) ladder(tr *tracer, res *result, _ time.Duration) error {
	dir, err := scratchDir(w.cfg, "wal")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	opts := storeOptions()
	jw, err := wal.OpenWriter(filepath.Join(dir, "scratch.wal"), opts.Policy, opts.SyncInterval)
	if err != nil {
		return err
	}
	// The run's own totals, before the ladder's imports join them.
	o := &w.obs
	runPayload, runWrites := o.payloadBytes, float64(len(o.writes))
	size0 := jw.Size()
	n, ladderPayload := 0, 0.0
	for ; n < ladderImports && w.nextFresh < len(w.fresh); n++ {
		p := w.fresh[w.nextFresh]
		t0 := time.Now()
		if _, err := w.sut.DB.ImportClipRecord(p.Data); err != nil {
			return err
		}
		t1 := time.Now()
		if err := jw.Append(wal.OpIngest, p.Data); err != nil {
			return err
		}
		t2 := time.Now()
		parent := tr.add("core.import", 0, n+1, t0, t1)
		tr.add("wal.append", parent, n+1, t1, t2)
		ladderPayload += float64(len(p.Data))
		w.acked(p.Name, false)
	}
	perRecord := ratio(float64(jw.Size()-size0), float64(n))
	if err := jw.Close(); err != nil {
		return err
	}
	m := res.Metrics
	m["core.cache_hit_ratio"] = cacheHitRatio(w.sut.DB)
	m["core.import_us"], m["core.import_self_us"] = tr.medianUS("core.import")
	m["wal.append_us"], _ = tr.medianUS("wal.append")
	m["wal.bytes_per_record"] = perRecord
	// Bytes the directory received for each payload byte accepted: the
	// journal's records (payload plus framing), every flushed segment,
	// every compaction output. Delete records' names, manifest rewrites
	// and journal rotations are not counted.
	framing := perRecord - ratio(ladderPayload, float64(n))
	walBytes := runPayload + runWrites*framing
	m["segstore.write_amp"] = ratio(walBytes+o.flushBytes+o.compactBytes, runPayload)
	tr.count("store.payload_bytes", runPayload)
	tr.count("store.wal_bytes_appended", walBytes)
	tr.count("store.flush_bytes", o.flushBytes)
	tr.count("store.compact_bytes", o.compactBytes)
	return nil
}

// epilogue measures space at quiescence, then crashes and restarts the
// store: a byte copy of the directory while it is still open, reopened
// and held to every acknowledged write.
func (w *storeRW) epilogue(res *result, tr *tracer) error {
	st := w.sut.Store
	man := st.Manifest()
	var segBytes, segShots float64
	for _, s := range man.Segments {
		segBytes += float64(s.Bytes)
		segShots += float64(s.Shots)
	}
	walInfo, err := os.Stat(filepath.Join(st.Dir(), segstore.WALName))
	if err != nil {
		return err
	}
	diskPerShot := (segBytes + float64(walInfo.Size())) / float64(w.sut.DB.ShotCount())

	dir, err := scratchDir(w.cfg, "crash")
	if err != nil {
		return err
	}
	w.dirs = append(w.dirs, dir)
	if err := copyDir(st.Dir(), dir); err != nil {
		return err
	}
	t0 := time.Now()
	st2, err := segstore.Open(dir, storeOptions())
	if err != nil {
		return fmt.Errorf("reopening the crash copy: %w", err)
	}
	openMS := ms(time.Since(t0))
	copySUT, err := serveStore(st2)
	if err != nil {
		_ = st2.Close()
		return err
	}
	defer func() { _ = copySUT.stop() }()
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	bad, err := verifyQueries(hc, copySUT.URL, w.points[:1], w.oracle, w.cfg.logf)
	if err != nil {
		return err
	}
	startup := time.Since(t0).Seconds()
	res.fail(bad, "first answer after the restart differs from the live store", w.cfg.logf)

	// Durability: a violation is a failed run, not a metric.
	lost, risen := 0, 0
	for name := range w.obs.present {
		if _, ok := st2.DB().Clip(name); !ok {
			lost++
		}
	}
	for name := range w.obs.deleted {
		if _, ok := st2.DB().Clip(name); ok {
			risen++
		}
	}
	res.Attempted += len(w.obs.present) + len(w.obs.deleted)
	res.fail(lost, "acknowledged import missing after the crash", w.cfg.logf)
	res.fail(risen, "acknowledged delete present after the crash", w.cfg.logf)
	if got, want := st2.DB().ShotCount(), w.sut.DB.ShotCount(); got != want {
		res.fail(1, fmt.Sprintf("restarted store holds %d shots, live store %d", got, want), w.cfg.logf)
	}
	rest, err := verifyQueries(hc, copySUT.URL, w.precheck()[1:], w.oracle, w.cfg.logf)
	if err != nil {
		return err
	}
	res.fail(rest, "answer after the restart differs from the live store", w.cfg.logf)

	w.cfg.logf("  startup_s %.4f (open %.1f ms), disk_bytes_per_shot %.1f (%d segments, %.0f segment bytes, %d WAL bytes), %d imports and %d deletes verified after the crash",
		startup, openMS, diskPerShot, len(man.Segments), segBytes, walInfo.Size(), len(w.obs.present), len(w.obs.deleted))
	if tr == nil {
		return nil
	}
	m := res.Metrics
	m["store.startup_s"] = startup
	m["store.disk_bytes_per_shot"] = diskPerShot
	m["segment.bytes_per_shot"] = ratio(segBytes, segShots)
	m["segstore.open_ms"] = openMS
	tr.count("store.segment_bytes", segBytes)
	tr.count("store.wal_bytes", float64(walInfo.Size()))
	return w.coldReads(res, tr, st2, dir)
}

// coldReads times the restarted store's read layers directly: journal
// replay into an empty database, clip materialization from the largest
// segment, and uncached queries against the mmap-backed corpus.
func (w *storeRW) coldReads(res *result, tr *tracer, st2 *segstore.Store, dir string) error {
	m := res.Metrics
	scratch, err := core.Open(core.DefaultOptions())
	if err != nil {
		return err
	}
	walCopy := filepath.Join(dir, "replay.wal")
	if err := copyFile(filepath.Join(w.sut.Store.Dir(), segstore.WALName), walCopy); err != nil {
		return err
	}
	t0 := time.Now()
	rr, err := wal.RecoverDatabase(scratch, walCopy)
	if err != nil {
		return err
	}
	tr.add("wal.replay", 0, 0, t0, time.Now())
	m["wal.replay_ms"] = ms(time.Since(t0))
	tr.count("wal.replayed_records", float64(rr.Records))

	var biggest segment.SegmentInfo
	for _, s := range st2.Manifest().Segments {
		if s.Bytes > biggest.Bytes {
			biggest = s
		}
	}
	rd, err := segment.Open(filepath.Join(dir, biggest.File))
	if err != nil {
		return err
	}
	defer rd.Close()
	r := w.r.fork(4)
	for i := 0; i < 200; i++ {
		name := rd.Name(r.intn(rd.NumClips()))
		t0 := time.Now()
		if _, ok, err := rd.ClipByName(name); err != nil || !ok {
			return fmt.Errorf("reading %q from %s: ok=%v err=%v", name, biggest.File, ok, err)
		}
		tr.add("segment.read_clip", 0, i+1, t0, time.Now())
	}
	m["segment.read_clip_us"], _ = tr.medianUS("segment.read_clip")

	var dst []core.Match
	for i, q := range w.precheck() {
		t0 := time.Now()
		if dst, err = st2.DB().QueryUncachedAppend(dst[:0], q.query(), q.options()); err != nil {
			return err
		}
		tr.add("core.query_cold", 0, i+1, t0, time.Now())
	}
	m["core.query_cold_us"], _ = tr.medianUS("core.query_cold")
	return nil
}

func (w *storeRW) stop() {
	if w.sut != nil {
		_ = w.sut.stop()
		w.sut = nil
	}
	for _, d := range w.dirs {
		_ = os.RemoveAll(d)
	}
	w.dirs = nil
}

// copyDir copies the regular files of src into dst.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
