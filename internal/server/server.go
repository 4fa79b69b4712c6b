// Package server exposes a video database over HTTP with a small JSON
// API, the networked face of the paper's "large video database" use
// cases (digital libraries, public information systems):
//
//	GET    /api/clips                          list ingested clips
//	POST   /api/clips                          ingest a VDBF/Y4M upload live
//	GET    /api/clips/{name}                   one clip's shot table
//	DELETE /api/clips/{name}                   remove a clip and its index entries
//	GET    /api/clips/{name}/tree              the clip's scene tree
//	GET    /api/query?varba=25&varoa=4         variance query (Eqs. 7–8)
//	GET    /api/query?impression=bg%3Dhigh+obj%3Dlow
//	POST   /api/query/batch                    many variance queries, one round trip
//	GET    /api/similar?clip=NAME&shot=3&k=3   query by example shot
//	POST   /api/snapshot                       flush the memtable into a segment
//	GET    /api/metrics                        Prometheus text-format metrics
//
// Every request passes through a middleware stack: panic recovery (a
// handler panic answers 500 JSON instead of dropping the connection),
// structured request logging, optional admission control (rate limits
// and a concurrency cap; overload sheds 429/503 with Retry-After, see
// WithAdmission), per-route metrics, and a per-request timeout (uploads
// and snapshots are exempt). Handlers run on the request's goroutine,
// are never abandoned (an admission slot is held while one runs), and
// get the timeout's 503 only if the deadline passes before their first
// byte.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"videodb/internal/admission"
	"videodb/internal/core"
	"videodb/internal/impression"
	"videodb/internal/scenetree"
	"videodb/internal/segstore"
	"videodb/internal/varindex"
	"videodb/internal/wal"
)

// Server serves a database over HTTP.
type Server struct {
	db           *core.Database
	media        *mediaCache
	metrics      *metrics
	log          *slog.Logger
	timeout      time.Duration
	maxBody      int64
	ingestSem    chan struct{}
	journal      *wal.ClipJournal
	recovery     *wal.ReplayResult
	storage      *segstore.Store
	replica      Replication
	extraMetrics []func(counters, gauges map[string]float64)
	admission    *admission.Controller
}

// Option configures a Server.
type Option func(*Server)

// WithLogger directs the structured request/panic log; the default
// discards (library embedders opt in, vdbserver wires stderr).
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.log = l } }

// WithTimeout bounds each non-upload request; 0 disables. Default 30s.
func WithTimeout(d time.Duration) Option { return func(s *Server) { s.timeout = d } }

// WithMaxBody caps POST /api/clips upload size in bytes; 0 removes the
// cap. Default 256 MiB.
func WithMaxBody(n int64) Option { return func(s *Server) { s.maxBody = n } }

// WithJournal attaches the database's write-ahead journal so the
// server can ship it to replicas and export its counters at
// /api/metrics. The caller keeps ownership: wal.RecoverAndOpen (or
// segstore.Open) has already installed it on the database, and the
// caller closes it at shutdown.
func WithJournal(j *wal.ClipJournal) Option { return func(s *Server) { s.journal = j } }

// WithRecoveryInfo records the startup journal-replay outcome so
// operators can see at /api/metrics whether the last boot replayed
// records or truncated a torn tail.
func WithRecoveryInfo(res wal.ReplayResult) Option {
	return func(s *Server) { s.recovery = &res }
}

// WithStorage attaches a segment store. POST /api/snapshot then flushes
// the memtable into an immutable segment (rotating the WAL at the
// captured cut), and /api/health and /api/metrics report segment and
// clip-cache state. The caller keeps ownership and closes the store at
// shutdown. Attach the store's journal with WithJournal for replication,
// WAL metrics and health — the store owns its rotation.
func WithStorage(st *segstore.Store) Option { return func(s *Server) { s.storage = st } }

// New returns a server for the given database.
func New(db *core.Database, opts ...Option) *Server {
	s := &Server{
		db:      db,
		metrics: newMetrics(),
		// Disabled at every level, so a discarded log line costs only
		// the Enabled check.
		log:     slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)})),
		timeout: 30 * time.Second,
		maxBody: 256 << 20,
	}
	for _, o := range opts {
		o(s)
	}
	// Each ingest's frame pipeline already fans out across the
	// database's worker budget, so admitting more than two concurrent
	// upload analyses (one analyzing, one parsing its upload) would
	// oversubscribe the CPU rather than add throughput.
	s.ingestSem = make(chan struct{}, 2)
	return s
}

// Handler returns the HTTP handler implementing the API, wrapped in the
// logging → recovery → admission → per-route metrics → timeout
// middleware stack. The metrics sit outside the timeout so that a route
// counts the status its client got.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	var routes []*routeStats
	route := func(pattern string, h http.HandlerFunc) {
		rs := &routeStats{pattern: pattern}
		routes = append(routes, rs)
		mux.Handle(pattern, rs.instrument(s.withTimeout(h)))
	}
	route("GET /api/clips", s.handleClips)
	route("POST /api/clips", s.handleIngest)
	route("GET /api/clips/{name}", s.handleClip)
	route("DELETE /api/clips/{name}", s.handleRemove)
	route("GET /api/clips/{name}/tree", s.handleTree)
	route("GET /api/query", s.handleQuery)
	route("POST /api/query/batch", s.handleQueryBatch)
	route("GET /api/similar", s.handleSimilar)
	route("GET /api/frame", s.handleFrame)
	route("GET /api/storyboard", s.handleStoryboard)
	route("POST /api/snapshot", s.handleSnapshot)
	route("GET /api/health", s.handleHealth)
	route("GET /api/replication/snapshot", s.handleReplicationSnapshot)
	route("GET /api/replication/wal", s.handleReplicationWAL)
	route("GET /api/replication/clip/{name}", s.handleReplicationClipGet)
	route("POST /api/replication/clip", s.handleReplicationClipPut)
	route("GET /api/metrics", func(w http.ResponseWriter, _ *http.Request) { s.handleMetrics(w, routes) })
	route("GET /", s.handleIndex)
	slices.SortFunc(routes, func(a, b *routeStats) int { return strings.Compare(a.pattern, b.pattern) })
	var h http.Handler = mux
	h = s.withAdmission(h)
	h = s.withRecovery(h)
	h = s.withLogging(h)
	return h
}

// ClipSummary is the JSON shape of a clip listing entry.
type ClipSummary struct {
	Name       string `json:"name"`
	Frames     int    `json:"frames"`
	FPS        int    `json:"fps"`
	Shots      int    `json:"shots"`
	TreeHeight int    `json:"treeHeight"`
}

// ShotJSON is the JSON shape of one shot.
type ShotJSON struct {
	Shot     int     `json:"shot"`
	Start    int     `json:"start"`
	End      int     `json:"end"`
	VarBA    float64 `json:"varBA"`
	VarOA    float64 `json:"varOA"`
	Dv       float64 `json:"dv"`
	RepFrame int     `json:"repFrame"`
}

// NodeJSON is the JSON shape of a scene-tree node.
type NodeJSON struct {
	Name     string     `json:"name"`
	Shot     int        `json:"shot"`
	Level    int        `json:"level"`
	RepFrame int        `json:"repFrame"`
	Children []NodeJSON `json:"children,omitempty"`
}

// MatchJSON is the JSON shape of one query match: the specification of
// the match wire, which AppendMatches writes and ScanMatches reads
// (matchwire.go). A member added here lands in both in the same change;
// TestAppendMatchesIsEncodingJSON and FuzzScanMatches fail otherwise.
type MatchJSON struct {
	Clip  string  `json:"clip"`
	Shot  int     `json:"shot"`
	Start int     `json:"start"`
	End   int     `json:"end"`
	VarBA float64 `json:"varBA"`
	VarOA float64 `json:"varOA"`
	Dv    float64 `json:"dv"`
	Scene string  `json:"scene,omitempty"`
}

// QueryResponseJSON is the coordinator's GET /api/query answer: the
// merged matches plus the partial marker. (A single node returns the
// bare match array; the coordinator wraps it because "who answered" is
// meaningful only behind a scatter.)
type QueryResponseJSON struct {
	Matches []MatchJSON `json:"matches"`
	Partial bool        `json:"partial"`
}

// BatchResponseJSON is the POST /api/query/batch answer: one match
// list per query, in request order. The coordinator adds the partial
// marker; a node's answer, always whole, carries no partial key.
type BatchResponseJSON struct {
	Results [][]MatchJSON `json:"results"`
	Partial bool          `json:"partial"`
}

// WriteJSON answers 200 with v as compact JSON — the one answer shape
// of the API, shared with the coordinator.
func WriteJSON(w http.ResponseWriter, v any) { writeJSONStatus(w, http.StatusOK, v) }

// writeJSONStatus is the API's reflecting JSON writer: every answer but
// a match answer (WriteJSONBody), and every error and backpressure body.
func writeJSONStatus(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError answers code with the API's error body, {"error": text}.
func WriteError(w http.ResponseWriter, code int, err error) {
	writeJSONStatus(w, code, map[string]string{"error": err.Error()})
}

// ReadBody reads a request body of at most limit bytes — the one body
// reader of the API, shared with the coordinator. On failure it returns
// the status to refuse with: 413 only when the body is over the limit,
// 400 for every other read error (a body that breaks mid-read is a
// broken request, not a large one).
func ReadBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, int, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		return nil, code, err
	}
	return body, 0, nil
}

func (s *Server) handleClips(w http.ResponseWriter, _ *http.Request) {
	// Records captures the listing under one lock: the old Clips+Clip
	// pair raced with concurrent DELETEs (a clip removed between the two
	// calls came back as a nil record and panicked the handler).
	var out []ClipSummary
	for _, rec := range s.db.Records() {
		out = append(out, ClipSummary{
			Name: rec.Name, Frames: rec.Frames, FPS: rec.FPS,
			Shots: len(rec.Shots), TreeHeight: rec.Tree.Height(),
		})
	}
	WriteJSON(w, out)
}

func (s *Server) handleClip(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.db.Clip(r.PathValue("name"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("clip %q not found", r.PathValue("name")))
		return
	}
	shots := make([]ShotJSON, len(rec.Shots))
	for i, sr := range rec.Shots {
		shots[i] = ShotJSON{
			Shot: i, Start: sr.Shot.Start, End: sr.Shot.End,
			VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA,
			Dv: sr.Feature.Dv(), RepFrame: sr.RepFrame,
		}
	}
	WriteJSON(w, struct {
		ClipSummary
		ShotTable []ShotJSON `json:"shotTable"`
	}{
		ClipSummary{rec.Name, rec.Frames, rec.FPS, len(rec.Shots), rec.Tree.Height()},
		shots,
	})
}

func (s *Server) handleTree(w http.ResponseWriter, r *http.Request) {
	tree, err := s.db.Browse(r.PathValue("name"))
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	WriteJSON(w, nodeJSON(tree.Root))
}

func nodeJSON(n *scenetree.Node) NodeJSON {
	out := NodeJSON{Name: n.Name(), Shot: n.Shot, Level: n.Level, RepFrame: n.RepFrame}
	for _, c := range n.Children {
		out.Children = append(out.Children, nodeJSON(c))
	}
	return out
}

// parseFloat reads a float query parameter with a default.
func parseFloat(r *http.Request, key string, def float64) (float64, error) {
	s := r.URL.Query().Get(key)
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s: %w", key, err)
	}
	return v, nil
}

// ParseQuery reads GET /api/query's parameters: the query point, from
// impression= or varba=/varoa=, and the alpha=/beta= tolerances over the
// defaults def, all validated. Every error is the client's (400). The
// coordinator parses with the same function, so it refuses exactly what
// a node refuses and merges by the point the shards searched with.
func ParseQuery(r *http.Request, def varindex.Options) (varindex.Query, varindex.Options, error) {
	var q varindex.Query
	if imp := r.URL.Query().Get("impression"); imp != "" {
		parsed, err := impression.Parse(imp)
		if err != nil {
			return q, def, err
		}
		q = parsed.Query()
	} else {
		var err error
		if q.VarBA, err = parseFloat(r, "varba", -1); err != nil {
			return q, def, err
		}
		if q.VarOA, err = parseFloat(r, "varoa", -1); err != nil {
			return q, def, err
		}
		if q.VarBA < 0 || q.VarOA < 0 {
			return q, def, fmt.Errorf("need varba and varoa (or impression=...)")
		}
	}
	opt := def
	var err error
	if opt.Alpha, err = parseFloat(r, "alpha", def.Alpha); err != nil {
		return q, def, err
	}
	if opt.Beta, err = parseFloat(r, "beta", def.Beta); err != nil {
		return q, def, err
	}
	// The index would refuse these with the same errors; checking here
	// lets the coordinator refuse them before it fans out.
	if err := opt.Validate(); err != nil {
		return q, def, err
	}
	return q, opt, q.Validate()
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q, opt, err := ParseQuery(r, s.db.Options().Query)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	matches, err := s.db.QueryWithOptions(q, opt)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	writeMatches(w, matches)
}

func (s *Server) handleSimilar(w http.ResponseWriter, r *http.Request) {
	clip := r.URL.Query().Get("clip")
	if clip == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("need clip parameter"))
		return
	}
	shot, err := strconv.Atoi(r.URL.Query().Get("shot"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("parameter shot: %w", err))
		return
	}
	k := 3
	if ks := r.URL.Query().Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k < 1 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("parameter k must be a positive integer"))
			return
		}
	}
	matches, err := s.db.QueryByShot(clip, shot, k)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	writeMatches(w, matches)
}
