// Package core is the integrated video database of the paper (SIGMOD
// 2000): ingesting a clip runs the three-step methodology end to end —
//
//	Step 1: camera-tracking shot boundary detection, which also
//	        extracts the per-shot feature vector (Var^BA, Var^OA);
//	Step 2: fully automatic scene-tree construction for non-linear
//	        browsing;
//	Step 3: a variance-based index over all shots, answering similarity
//	        queries with the scene nodes at which to start browsing.
//
// A Database is safe for concurrent use, and its read path is
// lock-free: queries, listings and browsing resolve against an
// immutable view published through an atomic pointer (view.go), so a
// seconds-long ingest never stalls a reader. An optional result cache
// (WithQueryCache) answers repeated identical queries without touching
// the index; each published view owns one, empty when the view is
// published, so a mutation never inherits a stale answer. Ingest runs
// a two-phase pipeline:
// per-frame analysis fans out across a bounded worker pool
// (Options.Workers, see WithParallelism) into an ordered stream that
// the strictly sequential pairwise shot detector consumes in frame
// order, so parallel and serial ingests are bit-identical.
package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/feature"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/varindex"
	"videodb/internal/video"
)

// ErrDuplicate reports an ingest whose clip name is already present or
// already being analyzed; match it with errors.Is.
var ErrDuplicate = errors.New("clip already ingested")

// ErrNotFound reports an operation on a clip the database does not
// hold; match it with errors.Is.
var ErrNotFound = errors.New("clip not found")

// Options configures a Database.
type Options struct {
	// SBD holds the camera-tracking detector thresholds.
	SBD sbd.Config
	// Tree holds the scene-tree construction parameters.
	Tree scenetree.Config
	// Query holds the default α/β similarity tolerances.
	Query varindex.Options
	// Workers bounds the per-frame worker pool of the ingest pipeline;
	// 0 means GOMAXPROCS. Set it through WithParallelism when opening a
	// database.
	Workers int
	// QueryCache bounds each view's query-result cache in entries; 0
	// disables caching. Set it through WithQueryCache when opening.
	QueryCache int
}

// OpenOption adjusts a database's Options beyond what a caller built
// the struct with — the hook CLI flags (vdbctl/vdbserver -j) use.
type OpenOption func(*Options)

// WithParallelism bounds the ingest pipeline's per-frame worker pool:
// n workers fan out the reduction of each frame to signature and signs
// while the sequential three-stage boundary test consumes the results
// in frame order. 0 restores the default, GOMAXPROCS.
func WithParallelism(n int) OpenOption {
	return func(o *Options) { o.Workers = n }
}

// WithQueryCache bounds the query-result cache to n entries; 0
// disables caching. Every published view starts with an empty cache of
// its own, so a cached answer is always identical to what the view it
// was computed against returns uncached.
func WithQueryCache(n int) OpenOption {
	return func(o *Options) { o.QueryCache = n }
}

// DefaultOptions returns the paper's parameters throughout.
func DefaultOptions() Options {
	return Options{
		SBD:   sbd.DefaultConfig(),
		Tree:  scenetree.DefaultConfig(),
		Query: varindex.DefaultOptions(),
	}
}

// ShotRecord is the stored state of one shot.
type ShotRecord struct {
	// Shot is the frame range.
	Shot sbd.Shot
	// Feature is the variance feature vector.
	Feature feature.ShotFeature
	// RepFrame is the representative frame index (from the scene tree's
	// leaf).
	RepFrame int
}

// IngestStats is the pipeline telemetry of one clip's ingest: which
// phases the wall-clock went to and how wide the per-frame pool ran.
// It is not persisted — a record decoded from a segment reports zeros.
type IngestStats struct {
	// Workers is the per-frame worker bound the pipeline ran with
	// (resolved, never 0).
	Workers int
	// AnalyzeSeconds is the wall-clock time of the overlapped phase:
	// parallel per-frame reduction plus the sequential boundary test
	// consuming it.
	AnalyzeSeconds float64
	// DetectSeconds is the share of AnalyzeSeconds the consumer spent
	// in the sequential three-stage test — the Amdahl floor of the
	// pipeline.
	DetectSeconds float64
	// TreeSeconds is scene-tree construction time.
	TreeSeconds float64
	// IndexSeconds is per-shot feature extraction and index-entry
	// construction time.
	IndexSeconds float64
}

// ClipRecord is the stored state of one ingested clip.
type ClipRecord struct {
	// Name is the clip's unique name.
	Name string
	// Frames and FPS describe the analyzed clip.
	Frames, FPS int
	// Shots lists the detected shots in order.
	Shots []ShotRecord
	// Tree is the browsing hierarchy.
	Tree *scenetree.Tree
	// Stats is the SBD stage telemetry.
	Stats sbd.Stats
	// Pipeline is the ingest-pipeline telemetry (zero on records decoded
	// from a segment).
	Pipeline IngestStats
}

// Match is one query result: the matching shot plus the largest scene
// node sharing its representative frame — the browsing entry point §4.2
// describes.
type Match struct {
	// Entry identifies the matching shot and its feature values.
	Entry varindex.Entry
	// Scene is the suggested scene-tree node to start browsing from.
	Scene *scenetree.Node
}

// Database is the video DBMS. Reads are lock-free: every read method
// pins the current immutable view with one atomic load and resolves
// against it, so a query never waits on an in-flight ingest. Writers
// serialize on mu, derive the successor view copy-on-write, and swap
// it in; the swap is the commit point.
type Database struct {
	// mu serializes writers (ingest commit, delete, replay, journal
	// installation) and snapshot capture. Readers never take it.
	mu   sync.RWMutex
	opts Options
	// view is the atomically published immutable read state: the
	// sorted clip catalog and the built similarity index. See view.go.
	view atomic.Pointer[view]
	// answered counts the lookups of every view's answer cache.
	answered answerCounters
	// reserved holds clip names whose ingest analysis is in flight, so
	// duplicates are rejected before burning CPU on analysis and two
	// concurrent ingests of the same name cannot both commit.
	reserved map[string]struct{}
	// journal, when set, receives every mutation before it commits —
	// the write-ahead discipline SetJournal documents.
	journal Journal
	// store is the segment-store publication state (flush.go); zero
	// until ApplySegmentBase enables it.
	store storeState
	// analyzers holds one feature analyzer per frame size, so clips of
	// one size share its sampling maps and pooled reducers; anMu
	// guards it. At most maxAnalyzers sizes are kept.
	anMu      sync.Mutex
	analyzers map[[2]int]*feature.Analyzer
}

// maxAnalyzers bounds the analyzers a database keeps: frame sizes come
// from uploads, and a clip of a size beyond the bound gets an analyzer
// of its own.
const maxAnalyzers = 8

// Open creates an empty database with the given options, adjusted by
// any OpenOptions.
func Open(opts Options, extra ...OpenOption) (*Database, error) {
	for _, o := range extra {
		o(&opts)
	}
	if err := opts.SBD.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Tree.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Query.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", opts.Workers)
	}
	if opts.QueryCache < 0 {
		return nil, fmt.Errorf("core: negative query cache size %d", opts.QueryCache)
	}
	db := &Database{
		opts:      opts,
		reserved:  make(map[string]struct{}),
		analyzers: make(map[[2]int]*feature.Analyzer),
	}
	db.publishLocked(emptyView()) // no other goroutine can see db yet
	return db, nil
}

// publishLocked gives next an empty answer cache and makes it the
// current view. Callers hold the write lock; the Store is the commit
// point after which every new reader observes the mutation. This is
// the one place a view's answer cache is made: a successor never
// inherits its predecessor's answers.
func (db *Database) publishLocked(next *view) {
	if db.opts.QueryCache > 0 {
		next.answers = newLRU[qkey, []Match](db.opts.QueryCache)
	}
	db.view.Store(next)
}

// Options returns the database's configuration.
func (db *Database) Options() Options { return db.opts }

// Workers returns the resolved per-frame worker bound of the ingest
// pipeline (Options.Workers with 0 mapped to GOMAXPROCS).
func (db *Database) Workers() int {
	if db.opts.Workers > 0 {
		return db.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Ingest analyzes one clip and adds it to the database. Clip names must
// be unique: the name is reserved before the (expensive) analysis runs,
// so a duplicate fails immediately instead of after seconds of wasted
// CPU, and two concurrent ingests of the same name cannot both commit.
func (db *Database) Ingest(clip *video.Clip) (*ClipRecord, error) {
	return db.IngestContext(context.Background(), clip)
}

// IngestContext is Ingest under a context: cancelling ctx stops the
// analysis pipeline promptly (no goroutines outlive the call), releases
// the clip's name reservation, and leaves the database unchanged. The
// HTTP layer threads each upload's request context through here, so an
// abandoned upload or a server shutdown aborts the analysis instead of
// burning CPU on a result nobody will read.
func (db *Database) IngestContext(ctx context.Context, clip *video.Clip) (*ClipRecord, error) {
	if clip == nil || clip.Name == "" {
		return nil, fmt.Errorf("core: clip has no name")
	}
	if err := db.reserve(clip.Name); err != nil {
		return nil, err
	}
	rec, entries, err := db.analyze(ctx, clip)

	db.mu.Lock()
	defer db.mu.Unlock()
	delete(db.reserved, clip.Name)
	if err != nil {
		return nil, err
	}
	// Write-ahead: the journal record must be durable (per its sync
	// policy) before the clip becomes visible. A journal failure rejects
	// the ingest — the in-memory state never runs ahead of the log.
	if db.journal != nil {
		if jerr := db.journal.LogIngest(rec); jerr != nil {
			return nil, fmt.Errorf("core: clip %q: journaling ingest: %w", clip.Name, jerr)
		}
	}
	db.publishLocked(db.view.Load().withClip(rec, entries))
	return rec, nil
}

// reserve claims a clip name for an in-flight ingest.
func (db *Database) reserve(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.view.Load().has(name) {
		return fmt.Errorf("core: clip %q: %w", name, ErrDuplicate)
	}
	if _, busy := db.reserved[name]; busy {
		return fmt.Errorf("core: clip %q: concurrent ingest in flight: %w", name, ErrDuplicate)
	}
	db.reserved[name] = struct{}{}
	return nil
}

// analyzer returns the database's analyzer for w×h frames, building
// it on the first clip of that size. feature.Analyzer is safe for
// concurrent use, so concurrent ingests share it.
func (db *Database) analyzer(w, h int) (*feature.Analyzer, error) {
	key := [2]int{w, h}
	db.anMu.Lock()
	defer db.anMu.Unlock()
	if an, ok := db.analyzers[key]; ok {
		return an, nil
	}
	an, err := feature.NewAnalyzer(w, h)
	if err != nil {
		return nil, err
	}
	if len(db.analyzers) < maxAnalyzers {
		db.analyzers[key] = an
	}
	return an, nil
}

// analyze runs steps 1–3 for one clip, touching no shared state but
// the analyzer cache.
//
// Step 1 is the two-phase pipeline: a bounded worker pool
// (Options.Workers, 0 meaning GOMAXPROCS) fans the per-frame reduction
// — FBA/FOA extraction, TBA transform, pyramid → signature → signs —
// out across frames, while the caller's goroutine consumes the results
// strictly in frame order and runs the sequential three-stage
// sign/signature/background-tracking test between consecutive frames.
// Only the pairwise comparison is order-dependent, so shot boundaries
// are bit-identical to a fully serial run at any worker count.
func (db *Database) analyze(ctx context.Context, clip *video.Clip) (*ClipRecord, []varindex.Entry, error) {
	if err := clip.Validate(); err != nil {
		return nil, nil, err
	}
	if clip.Name == "" {
		return nil, nil, fmt.Errorf("core: clip has no name")
	}
	an, err := db.analyzer(clip.Frames[0].W, clip.Frames[0].H)
	if err != nil {
		return nil, nil, fmt.Errorf("core: clip %q: %w", clip.Name, err)
	}
	det, err := sbd.NewCameraTracking(db.opts.SBD, an)
	if err != nil {
		return nil, nil, fmt.Errorf("core: clip %q: %w", clip.Name, err)
	}

	// Step 1: segment into shots, computing frame features once.
	pstats := IngestStats{Workers: db.Workers()}
	feats := make([]feature.FrameFeature, 0, clip.Len())
	stream := det.NewStream()
	var detectDur time.Duration
	analyzeStart := time.Now()
	err = an.AnalyzeClipStream(ctx, clip, db.opts.Workers,
		func(i int, ff feature.FrameFeature) {
			feats = append(feats, ff)
			t0 := time.Now()
			stream.Push(&feats[i])
			detectDur += time.Since(t0)
		})
	if err != nil {
		return nil, nil, fmt.Errorf("core: clip %q: %w", clip.Name, err)
	}
	pstats.AnalyzeSeconds = time.Since(analyzeStart).Seconds()
	pstats.DetectSeconds = detectDur.Seconds()
	bounds, stats := stream.Result()
	shots := sbd.ShotsFromBoundaries(bounds, clip.Len())

	// Step 2: build the scene tree.
	treeStart := time.Now()
	tree, err := scenetree.Build(db.opts.Tree, feats, shots)
	if err != nil {
		return nil, nil, fmt.Errorf("core: clip %q: %w", clip.Name, err)
	}
	pstats.TreeSeconds = time.Since(treeStart).Seconds()

	// Step 3: per-shot feature vectors and index entries.
	indexStart := time.Now()
	rec := &ClipRecord{
		Name:   clip.Name,
		Frames: clip.Len(),
		FPS:    clip.FPS,
		Tree:   tree,
		Stats:  stats,
	}
	entries := make([]varindex.Entry, 0, len(shots))
	for k, s := range shots {
		sf := feature.ShotFeatureFromFrames(feats, s.Start, s.End)
		rec.Shots = append(rec.Shots, ShotRecord{
			Shot:     s,
			Feature:  sf,
			RepFrame: tree.Leaves[k].RepFrame,
		})
		entries = append(entries, varindex.Entry{
			Clip: clip.Name, Shot: k,
			Start: s.Start, End: s.End,
			VarBA: sf.VarBA, VarOA: sf.VarOA,
			MeanBA: sf.MeanBA,
		})
	}
	pstats.IndexSeconds = time.Since(indexStart).Seconds()
	rec.Pipeline = pstats
	return rec, entries, nil
}

// IngestAll ingests clips in order. Every failure is collected and
// returned joined with errors.Join, so a multi-clip batch reports each
// failing clip, not just one. Clips that ingest successfully stay in
// the database even when others fail.
//
// Clips are processed sequentially on purpose: each clip's frame
// pipeline already fans out across Options.Workers cores, so running
// clips concurrently on top of it would oversubscribe the CPU without
// adding throughput. This also makes batch ingest deterministic —
// clips land in argument order.
func (db *Database) IngestAll(clips []*video.Clip) error {
	return db.IngestAllContext(context.Background(), clips)
}

// IngestAllContext is IngestAll under a context. Cancellation stops
// between clips and aborts the in-flight clip's analysis; clips already
// committed stay in the database, and the cancellation error joins the
// per-clip failures.
func (db *Database) IngestAllContext(ctx context.Context, clips []*video.Clip) error {
	var all []error
	for _, c := range clips {
		if err := ctx.Err(); err != nil {
			all = append(all, err)
			break
		}
		if _, err := db.IngestContext(ctx, c); err != nil {
			all = append(all, err)
		}
	}
	return errors.Join(all...)
}

// Remove deletes a clip and its index entries. It returns an error if
// the clip is not in the database.
func (db *Database) Remove(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	v := db.view.Load()
	if !v.has(name) {
		return fmt.Errorf("core: clip %q: %w", name, ErrNotFound)
	}
	// Write-ahead, like IngestContext: log the delete before applying it.
	if db.journal != nil {
		if jerr := db.journal.LogDelete(name); jerr != nil {
			return fmt.Errorf("core: clip %q: journaling delete: %w", name, jerr)
		}
	}
	db.recordTombstoneLocked(name)
	db.publishLocked(v.withoutClip(name))
	return nil
}

// Clip returns the record of a named clip, materializing it through
// the cold-clip cache when it lives in a segment. Lock-free: it reads
// the current view.
func (db *Database) Clip(name string) (*ClipRecord, bool) {
	return db.view.Load().record(name)
}

// Clips returns the names of all ingested clips, sorted. Lock-free.
func (db *Database) Clips() []string {
	v := db.view.Load()
	return append([]string(nil), v.names...)
}

// ClipCount returns how many clips the database holds, without copying
// the listing. Lock-free.
func (db *Database) ClipCount() int {
	return len(db.view.Load().names)
}

// Records returns every clip record sorted by name, captured from one
// view, so the listing is consistent: a concurrent Remove cannot
// split it. Records are immutable, so sharing the pointers is safe.
// Cold clips materialize through the shared cache — on a segment-backed
// store this walks the whole corpus, so prefer Clips for name listings.
// Lock-free.
func (db *Database) Records() []*ClipRecord {
	v := db.view.Load()
	out := make([]*ClipRecord, 0, len(v.names))
	for _, n := range v.names {
		if rec, ok := v.record(n); ok {
			out = append(out, rec)
		}
	}
	return out
}

// ShotCount returns the total number of indexed shots. Lock-free.
func (db *Database) ShotCount() int {
	return db.view.Load().index.Len()
}

// Epoch returns the current view's publication epoch: it increases by
// one on every committed mutation (ingest, delete, replay apply,
// snapshot apply). Within one process it is a progress counter —
// health endpoints expose it so operators and the cluster coordinator
// can see a node advancing; epochs of different processes are not
// comparable.
func (db *Database) Epoch() uint64 {
	return db.view.Load().epoch
}

// answer is the one query path: every public query method pins a view
// and comes through here. It answers q against the pinned view v,
// appending the matches to dst (which may be nil). With cached set and
// v holding an answer cache, the answer comes from v's cache — on a
// miss the kernel runs and its result is added; errors are never
// cached — and is copied into dst, so no caller ever holds the cache's
// backing array. Otherwise the index kernel runs with pooled scratch:
// with a dst at capacity that allocates nothing.
func (db *Database) answer(dst []Match, v *view, q varindex.Query, opt varindex.Options, cached bool) ([]Match, error) {
	if cached && v.answers != nil {
		key := cacheKey(q, opt)
		matches, ok := v.answers.get(key)
		if ok {
			db.answered.hits.Add(1)
		} else {
			db.answered.misses.Add(1)
			fresh, err := db.answer(nil, v, q, opt, false)
			if err != nil {
				return dst, err
			}
			var evicted int
			matches, evicted = v.answers.add(key, fresh)
			db.answered.evictions.Add(uint64(evicted))
		}
		return append(dst, matches...), nil
	}
	sc := searchScratchPool.Get().(*searchScratch)
	defer searchScratchPool.Put(sc)
	entries, err := v.index.SearchAppend(sc.ent[:0], q, opt, &sc.vs)
	if err != nil {
		return dst, err
	}
	sc.ent = entries
	return v.resolveAppend(dst, entries), nil
}

// Query runs a similarity search with the database's default tolerances,
// resolving each matching shot to its largest scene node. Lock-free:
// the search resolves against the current view, served from the query
// cache when an identical query already ran against it. The returned
// slice is the caller's to keep — sort, truncate or append freely.
func (db *Database) Query(q varindex.Query) ([]Match, error) {
	return db.QueryWithOptions(q, db.opts.Query)
}

// QueryWithOptions runs a similarity search with explicit tolerances.
// Lock-free and cached like Query; the returned slice is the caller's.
func (db *Database) QueryWithOptions(q varindex.Query, opt varindex.Options) ([]Match, error) {
	return db.answer(nil, db.view.Load(), q, opt, true)
}

// QueryUncached runs a similarity search with explicit tolerances,
// bypassing the query cache: the reference path for benchmarks and
// the differential tests that prove the cached path equivalent.
func (db *Database) QueryUncached(q varindex.Query, opt varindex.Options) ([]Match, error) {
	return db.answer(nil, db.view.Load(), q, opt, false)
}

// QueryUncachedAppend is QueryUncached appending into dst: the raw
// kernel path. With a reused dst at capacity, steady-state calls
// allocate nothing — the index scratch comes from an internal pool.
func (db *Database) QueryUncachedAppend(dst []Match, q varindex.Query, opt varindex.Options) ([]Match, error) {
	return db.answer(dst, db.view.Load(), q, opt, false)
}

// QueryBatch runs many similarity searches against one pinned view,
// returning one match slice per query in order, each served through the
// query cache like QueryWithOptions. Amortizing the per-request
// overhead through the HTTP layer is what makes bulk similarity lookups
// cheap. The result set is consistent — every query of the batch
// answers against the same view, so no concurrent ingest or remove can
// land between two queries of the same batch. A query that fails
// validation aborts the batch with an error naming its index. The
// returned slices are the caller's.
func (db *Database) QueryBatch(qs []varindex.Query, opt varindex.Options) ([][]Match, error) {
	v := db.view.Load()
	out := make([][]Match, len(qs))
	for i, q := range qs {
		matches, err := db.answer(nil, v, q, opt, true)
		if err != nil {
			return nil, fmt.Errorf("core: batch query %d: %w", i, err)
		}
		out[i] = matches
	}
	return out, nil
}

// QueryByShot searches for shots similar to an existing shot, excluding
// the shot itself, returning at most k matches. Lock-free; uncached,
// because the per-(clip,shot,k) key space is too sparse to earn its
// cache entries.
func (db *Database) QueryByShot(clip string, shot, k int) ([]Match, error) {
	v := db.view.Load()
	rec, ok := v.record(clip)
	if !ok {
		return nil, fmt.Errorf("core: clip %q: %w", clip, ErrNotFound)
	}
	if shot < 0 || shot >= len(rec.Shots) {
		return nil, fmt.Errorf("core: clip %q has no shot %d", clip, shot)
	}
	sf := rec.Shots[shot].Feature
	q := varindex.Query{VarBA: sf.VarBA, VarOA: sf.VarOA, MeanBA: sf.MeanBA}
	entries, err := v.index.TopKExcluding(q, db.opts.Query, k, clip, shot)
	if err != nil {
		return nil, err
	}
	return v.resolveAppend(make([]Match, 0, len(entries)), entries), nil
}

// Browse returns the scene tree of a named clip. Lock-free.
func (db *Database) Browse(clip string) (*scenetree.Tree, error) {
	rec, ok := db.view.Load().record(clip)
	if !ok {
		return nil, fmt.Errorf("core: clip %q: %w", clip, ErrNotFound)
	}
	return rec.Tree, nil
}
