// Replication: the primary side of the cluster's snapshot-bootstrap +
// WAL-shipping protocol, plus the health probe the coordinator's shard
// checker polls. A read replica bootstraps by downloading a segment of
// every live clip (GET /api/replication/snapshot), which carries the
// journal cut point and generation the state was captured at, then
// tails the journal (GET /api/replication/wal?from=<cut>&gen=<gen>) and
// replays the shipped records through the same idempotent apply path
// startup recovery uses. docs/CLUSTER.md specifies the protocol and its
// failure matrix.

package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"videodb/internal/core"
	"videodb/internal/wal"
)

// Replication protocol headers. Journal positions and generations
// travel as headers so the body stays raw bytes (snapshot segment or
// WAL records).
const (
	// HeaderWalCut carries the journal position a snapshot was captured
	// at: the `from` the replica's first WAL poll must use.
	HeaderWalCut = "X-Videodb-Wal-Cut"
	// HeaderWalGen carries the journal generation a position belongs
	// to; positions from different generations are not comparable.
	HeaderWalGen = "X-Videodb-Wal-Gen"
	// HeaderWalSize is the journal's current position: its distance
	// past a replica's cut is the replica's byte lag.
	HeaderWalSize = "X-Videodb-Wal-Size"
)

// walChunkLimit bounds one WAL stream response. A lagging replica
// catches up over several polls instead of one unbounded body.
const walChunkLimit = 4 << 20

// Replication is a read replica's progress source: cluster.Replica,
// which owns the stream the replica's state arrives through.
type Replication interface {
	Stats() ReplicationStatus
}

// ReplicationStatus is a snapshot of a replica's progress. Its tagged
// fields are the replication part of the replica's /api/health
// document, which the coordinator decodes to compute the replica's lag.
type ReplicationStatus struct {
	// Applied is the count of records replayed since start.
	Applied int64 `json:"-"`
	// Bootstraps counts full snapshot bootstraps; 1 is the clean
	// start, more means the stream had to re-converge.
	Bootstraps int64 `json:"replicationBootstraps"`
	// Cut is the next journal position the replica will request; every
	// record before it has been applied.
	Cut int64 `json:"replicationCut"`
	// LastError is the most recent replication error ("" when the last
	// step succeeded).
	LastError string `json:"replicationError,omitempty"`
	// Gen is the journal generation Cut belongs to ("" before the
	// first successful bootstrap).
	Gen string `json:"replicationGen"`
	// LagBytes is Cut's distance behind the primary's journal size as
	// of the last poll — 0 means caught up, -1 unknown (no stream
	// position: never bootstrapped, or re-bootstrapping).
	LagBytes int64 `json:"replicationLagBytes"`
	// Primary is the URL of the node the replica follows.
	Primary string `json:"replicationPrimary"`
}

// HealthJSON is the GET /api/health document. Fields are declared in
// key order, so the bytes are those of the same document as a sorted
// map. The embedded parts appear whole or not at all: the replication
// part on a replica, the journal part on a node with a journal.
type HealthJSON struct {
	Clips int    `json:"clips"`
	Epoch uint64 `json:"epoch"`
	// ReadOnly and Role are set on a replica; Role names its primary.
	ReadOnly bool `json:"readOnly,omitempty"`
	*ReplicationStatus
	Role    string         `json:"role,omitempty"`
	Shots   int            `json:"shots"`
	Status  string         `json:"status"`
	Storage *StorageHealth `json:"storage,omitempty"`
	*JournalHealth
}

// JournalHealth is the journal part of the health document: the
// coordinator subtracts a replica's cut from WalSize to get its lag,
// and only within one WalGen.
type JournalHealth struct {
	WalGen  string `json:"walGen"`
	WalSize int64  `json:"walSize"`
}

// StorageHealth is the segment-store part of the health document.
type StorageHealth struct {
	ColdClips     int   `json:"coldClips"`
	MaxGeneration int   `json:"maxGeneration"`
	MemtableClips int   `json:"memtableClips"`
	SegmentBytes  int64 `json:"segmentBytes"`
	Segments      int   `json:"segments"`
}

// WithReplica makes the server a read replica fed by r: mutating
// endpoints (ingest, delete, snapshot, import) answer 403 naming the
// primary, because the replica's state is owned by its replication
// stream and a local write would fork it; /api/health reports r's
// progress and /api/metrics its videodb_replica_* series.
func WithReplica(r Replication) Option { return func(s *Server) { s.replica = r } }

// WithExtraMetrics registers a hook that adds counters and gauges to
// GET /api/metrics at scrape time (vdbserver's chaos injection
// counts). Hooks compose: each WithExtraMetrics adds to the chain
// rather than replacing earlier registrations.
func WithExtraMetrics(fn func(counters, gauges map[string]float64)) Option {
	return func(s *Server) { s.extraMetrics = append(s.extraMetrics, fn) }
}

// refuseReadOnly answers a mutating request on a read replica.
func (s *Server) refuseReadOnly(w http.ResponseWriter) bool {
	if s.replica == nil {
		return false
	}
	WriteError(w, http.StatusForbidden,
		fmt.Errorf("read-only replica (replica of %s): send writes to the primary", s.replica.Stats().Primary))
	return true
}

// handleHealth implements GET /api/health: the cheap liveness and
// progress probe. epoch increases on every committed mutation, so a
// watcher sees a node advancing; primaries with a journal add the
// journal size and generation (the coordinator subtracts a replica's
// applied cut from the primary's size to get byte lag).
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	doc := HealthJSON{Status: "ok", Clips: s.db.ClipCount(), Shots: s.db.ShotCount(), Epoch: s.db.Epoch()}
	if s.replica != nil {
		st := s.replica.Stats()
		doc.ReadOnly, doc.Role, doc.ReplicationStatus = true, "replica of "+st.Primary, &st
	}
	if s.journal != nil {
		doc.JournalHealth = &JournalHealth{WalGen: s.journal.Gen(), WalSize: s.journal.Size()}
	}
	if s.storage != nil {
		st := s.storage.Stats()
		doc.Storage = &StorageHealth{
			ColdClips:     s.db.ColdClips(),
			MaxGeneration: st.MaxGen,
			MemtableClips: s.db.MemtableClips(),
			SegmentBytes:  st.SegmentBytes,
			Segments:      st.Segments,
		}
	}
	WriteJSON(w, doc)
}

// handleReplicationSnapshot implements GET /api/replication/snapshot:
// send the segment of every live clip a replica bootstraps from, with
// the journal cut point and generation it corresponds to in the response
// headers. State and cut are captured under one lock hold
// (core.Database.BeginSnapshot); the generation is fixed for the
// journal writer's life, so the (cut, gen) pair names a real journal
// position. The body is encoded before any header goes out: an encode
// failure is a 500, and Content-Length lets the replica tell a
// truncated transfer from a complete one.
func (s *Server) handleReplicationSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.journal == nil {
		WriteError(w, http.StatusNotImplemented,
			fmt.Errorf("replication needs a write-ahead journal (vdbserver -data)"))
		return
	}
	snap := s.db.BeginSnapshot()
	cut, ok := snap.JournalCut()
	if !ok {
		WriteError(w, http.StatusNotImplemented,
			fmt.Errorf("journal not installed on the database"))
		return
	}
	var body bytes.Buffer
	if err := snap.WriteSegment(&body, 0); err != nil {
		WriteError(w, http.StatusInternalServerError, fmt.Errorf("encoding replication snapshot: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(body.Len()))
	w.Header().Set(HeaderWalCut, strconv.FormatInt(cut, 10))
	w.Header().Set(HeaderWalGen, s.journal.Gen())
	_, _ = w.Write(body.Bytes())
	s.metrics.replSnapshots.Add(1)
}

// maxClipRecord caps what the import endpoint will read for one clip's
// analysis record. Records are shots + tree + stats, never pixels, so
// even a feature-length clip is well under this.
const maxClipRecord = 64 << 20

// handleReplicationClipGet implements GET /api/replication/clip/{name}:
// export one clip's analysis record as a one-clip segment (the exact
// payload EncodeClipRecord produces and ImportClipRecord consumes).
// This is the migration-source side of online resharding: the
// coordinator streams moved clips between primaries record by record,
// and because the encoding is a pure function of the record the
// destination's re-export can be compared byte for byte against this
// answer to verify the copy.
func (s *Server) handleReplicationClipGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	rec, ok := s.db.Clip(name)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("clip %q not found", name))
		return
	}
	payload, err := core.EncodeClipRecord(rec)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	_, _ = w.Write(payload)
	s.metrics.migrExports.Add(1)
	s.metrics.migrExportBytes.Add(int64(len(payload)))
}

// handleReplicationClipPut implements POST /api/replication/clip:
// import one exported clip record as a first-class durable write (it
// goes through this node's journal, unlike replica replay, and the
// answer carries the journal position like any write's). Idempotent:
// re-importing replaces the same-named clip wholesale, so a migration
// retry after a torn copy converges instead of erroring. Refused on
// read replicas — their state is owned by the replication stream.
func (s *Server) handleReplicationClipPut(w http.ResponseWriter, r *http.Request) {
	if s.refuseReadOnly(w) {
		return
	}
	payload, code, err := ReadBody(w, r, maxClipRecord)
	if err != nil {
		WriteError(w, code, fmt.Errorf("reading clip record: %w", err))
		return
	}
	name, err := s.db.ImportClipRecord(payload)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.migrImports.Add(1)
	s.metrics.migrImportBytes.Add(int64(len(payload)))
	s.setWalPosition(w.Header())
	WriteJSON(w, map[string]string{"imported": name})
}

// handleReplicationWAL implements GET /api/replication/wal?from=&gen=:
// serve the journal bytes in [from, size) — whole records, capped at
// walChunkLimit per response — for a replica to replay. Positions only
// grow for the life of a journal writer, so a rotation leaves them
// valid. If the replica's gen does not match (the primary restarted
// since the cut was issued), or from lies in a prefix a flush already
// rotated away, the answer is 409 and the replica must re-bootstrap
// from a fresh snapshot.
func (s *Server) handleReplicationWAL(w http.ResponseWriter, r *http.Request) {
	if s.journal == nil {
		WriteError(w, http.StatusNotImplemented,
			fmt.Errorf("replication needs a write-ahead journal (vdbserver -data)"))
		return
	}
	from, err := strconv.ParseInt(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("parameter from: %w", err))
		return
	}
	wantGen := r.URL.Query().Get("gen")
	if wantGen == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("parameter gen is required"))
		return
	}
	gen := s.journal.Gen()
	w.Header().Set(HeaderWalGen, gen)
	if gen != wantGen {
		WriteError(w, http.StatusConflict,
			fmt.Errorf("journal generation is %s, not %s: re-bootstrap from a fresh snapshot", gen, wantGen))
		return
	}
	data, size, err := s.journal.TailFrom(from, walChunkLimit)
	if err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, wal.ErrBadCut) {
			code = http.StatusConflict
		}
		WriteError(w, code, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderWalSize, strconv.FormatInt(size, 10))
	if len(data) > 0 {
		_, _ = w.Write(data)
	}
	s.metrics.replChunks.Add(1)
	s.metrics.replBytes.Add(int64(len(data)))
}
