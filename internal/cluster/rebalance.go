// Online resharding: the coordinator-driven migration engine behind
// POST /api/cluster/reshard. Growing or shrinking the shard list is a
// three-phase protocol built on the ring's minimal-movement guarantee.
// Phases 1 and 2 run one move pass, reshardRun.sync, which makes every
// new owner hold exactly the moved clips its sources hold.
//
//  1. Copy (online): the first sync moves every clip the old->new ring
//     diff moves, through the per-clip replication endpoints, each
//     copy verified record for record. Reads and writes flow normally;
//     writes are still routed by the old ring.
//  2. Cutover (write barrier): take the reshard write lock — in-flight
//     writes drain, new writes queue — sync again, which moves only
//     the clips written or deleted during the copy phase, then swap the
//     ring and shard list as one atomic topology pointer. Reads never
//     block; the barrier holds for one listing and one source export
//     per moved clip plus the delta, not for a copy of the moved set.
//  3. Cleanup (dual-read window): sources still hold the moved clips,
//     so scatter answers briefly contain both copies — the merge
//     collapses matches two shards return identically, which is
//     precisely the dual-read semantics — until the moved clips are
//     deleted from the surviving sources. The first delete waits for
//     every read that pinned the old topology to finish
//     (topology.readers): such a read asks only the old owners. The
//     window's length is reported.
//
// Any failure before the swap rolls back: the old topology stays, and
// every clip already imported to a destination is best-effort deleted,
// so a failed reshard leaves the cluster exactly as it found it.
// docs/CLUSTER.md carries the operator runbook and the rollback matrix.

package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"time"

	"videodb/internal/server"
)

// ErrReshardBusy reports a reshard request while one is already
// running; the coordinator migrates one membership change at a time.
var ErrReshardBusy = errors.New("cluster: a reshard is already in progress")

// errClipGone marks a migration source answering 404 for a clip: a
// concurrent delete won the race, and sync drops the clip from its
// destination. A destination answering 404 to the verify re-export is
// a verification failure instead.
var errClipGone = errors.New("cluster: clip deleted during migration")

// reshardAttempts is how many times each per-clip migration operation
// (export, import, verify, cleanup delete) is tried before the reshard
// fails. Retries use their own budget — a migration is a bounded batch
// job, not client traffic, so it must not drain the read path's
// Finagle budget.
const reshardAttempts = 4

// ReshardRequest is the POST /api/cluster/reshard body. Exactly one of
// Add or Remove must be set: Add appends shards to the end of the
// shard list (shard identity is the list ordinal, so growth is always
// an append), Remove drops that many shards off the tail.
type ReshardRequest struct {
	Add    []ReshardShard `json:"add,omitempty"`
	Remove int            `json:"remove,omitempty"`
}

// ReshardShard names one shard being added.
type ReshardShard struct {
	Primary  string   `json:"primary"`
	Replicas []string `json:"replicas,omitempty"`
}

// ReshardReport is the reshard endpoint's answer and the status
// document's record of the last completed operation.
type ReshardReport struct {
	FromShards int `json:"fromShards"`
	ToShards   int `json:"toShards"`
	// MovedFraction is the fraction of the keyspace that changed owner
	// — the minimal-movement evidence (about 1/new for a grow by one).
	MovedFraction float64 `json:"movedFraction"`
	// MovedClips is the number of moved clips the destinations hold at
	// the swap; CopiedClips counts copy operations performed (including
	// cutover re-copies of clips that changed during the copy phase);
	// VerifiedClips counts byte-for-byte copy verifications that passed.
	MovedClips    int `json:"movedClips"`
	CopiedClips   int `json:"copiedClips"`
	VerifiedClips int `json:"verifiedClips"`
	// DeltaResynced is how many clips the cutover barrier had to copy,
	// re-copy or drop because they were written or deleted during the
	// online copy phase;
	// DeletedFromSource counts the cleanup deletions that closed the
	// dual-read window.
	DeltaResynced     int `json:"deltaResynced"`
	DeletedFromSource int `json:"deletedFromSource"`
	// Retries counts per-operation retry attempts across all phases.
	Retries int `json:"retries"`
	// RolledBack is set when the reshard failed before cutover and the
	// old topology was kept; Error carries the cause.
	RolledBack bool   `json:"rolledBack,omitempty"`
	Error      string `json:"error,omitempty"`
	// CopySeconds is the online bulk-copy phase; CutoverSeconds is how
	// long the write barrier was held (the write stall); DualReadSeconds
	// is the window between the ring swap and the last source cleanup,
	// during which both owners served the moved clips and the merge
	// collapsed the copies; TotalSeconds spans the whole operation.
	CopySeconds     float64 `json:"copySeconds"`
	CutoverSeconds  float64 `json:"cutoverSeconds"`
	DualReadSeconds float64 `json:"dualReadSeconds"`
	TotalSeconds    float64 `json:"totalSeconds"`
}

// ReshardStatus is the /api/cluster/status slice describing the
// running or most recent reshard. MovedClips is how many moved clips
// the destinations hold so far; CopiedClips counts the copy operations
// of both phases so far.
type ReshardStatus struct {
	Active      bool           `json:"active"`
	Phase       string         `json:"phase"`
	FromShards  int            `json:"fromShards"`
	ToShards    int            `json:"toShards"`
	MovedClips  int            `json:"movedClips"`
	CopiedClips int            `json:"copiedClips"`
	Report      *ReshardReport `json:"report,omitempty"`
}

// reshardState serializes reshard operations and exposes their
// progress to the status endpoint.
type reshardState struct {
	mu          sync.Mutex
	active      bool
	phase       string
	from, to    int
	moved       int
	copied      int
	last        *ReshardReport
	everStarted bool
}

func (s *reshardState) begin(from, to int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active {
		return ErrReshardBusy
	}
	s.active, s.everStarted = true, true
	s.phase = "copying"
	s.from, s.to = from, to
	s.moved, s.copied = 0, 0
	return nil
}

func (s *reshardState) setPhase(p string) {
	s.mu.Lock()
	s.phase = p
	s.mu.Unlock()
}

func (s *reshardState) progress(moved, copied int) {
	s.mu.Lock()
	s.moved, s.copied = moved, copied
	s.mu.Unlock()
}

func (s *reshardState) finish(rep *ReshardReport) {
	s.mu.Lock()
	s.active = false
	if rep.Error != "" {
		s.phase = "failed"
	} else {
		s.phase = "done"
	}
	s.last = rep
	s.mu.Unlock()
}

// statusDoc renders the state for /api/cluster/status; nil before the
// first reshard so steady-state status documents stay unchanged.
func (s *reshardState) statusDoc() *ReshardStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.everStarted {
		return nil
	}
	return &ReshardStatus{
		Active: s.active, Phase: s.phase,
		FromShards: s.from, ToShards: s.to,
		MovedClips: s.moved, CopiedClips: s.copied,
		Report: s.last,
	}
}

// handleReshard implements POST /api/cluster/reshard. The migration
// runs synchronously — the answer is the full report — because the
// caller (an operator or the smoke harness) wants to know the outcome,
// and /api/cluster/status exposes live progress for watchers.
func (c *Coordinator) handleReshard(w http.ResponseWriter, r *http.Request) {
	body, code, err := server.ReadBody(w, r, 1<<20)
	if err != nil {
		server.WriteError(w, code, fmt.Errorf("reading reshard body: %w", err))
		return
	}
	var req ReshardRequest
	if err := json.Unmarshal(body, &req); err != nil {
		server.WriteError(w, http.StatusBadRequest, fmt.Errorf("decoding reshard body: %w", err))
		return
	}
	rep, err := c.Reshard(r.Context(), req)
	switch {
	case errors.Is(err, ErrReshardBusy):
		server.WriteError(w, http.StatusConflict, err)
	case err != nil && rep == nil:
		server.WriteError(w, http.StatusBadRequest, err)
	case err != nil:
		// The reshard ran and failed (rolled back): the operation's own
		// endpoint reports the failure, with the report attached so the
		// caller sees how far it got. Healthy traffic is unaffected.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "report": rep})
	default:
		server.WriteJSON(w, rep)
	}
}

// Reshard performs one online membership change: grow by appending the
// requested shards or shrink by dropping the tail, migrating exactly
// the clips the ring diff moves. It returns the report, and on failure
// (report, error) with the report describing the rollback. A nil
// report with an error means the request never started (invalid, or a
// reshard was already running).
func (c *Coordinator) Reshard(ctx context.Context, req ReshardRequest) (*ReshardReport, error) {
	old := c.topo.Load()
	from := len(old.shards)

	var target []*shard
	switch {
	case len(req.Add) > 0 && req.Remove > 0:
		return nil, fmt.Errorf("cluster: reshard takes add or remove, not both")
	case len(req.Add) > 0:
		target = append(target, old.shards...)
		for i, sc := range req.Add {
			if sc.Primary == "" {
				return nil, fmt.Errorf("cluster: added shard %d has no primary", i)
			}
			target = append(target, newShard(from+i, ShardConfig{Primary: sc.Primary, Replicas: sc.Replicas}))
		}
	case req.Remove > 0:
		if req.Remove >= from {
			return nil, fmt.Errorf("cluster: cannot remove %d of %d shards (at least one must remain)", req.Remove, from)
		}
		target = old.shards[:from-req.Remove]
	default:
		return nil, fmt.Errorf("cluster: reshard body needs add or remove")
	}
	to := len(target)

	if err := c.reshard.begin(from, to); err != nil {
		return nil, err
	}
	start := time.Now()
	rep := &ReshardReport{FromShards: from, ToShards: to}
	run := &reshardRun{c: c, rep: rep, old: old.shards, target: target}
	err := run.execute(ctx, old)
	rep.TotalSeconds = time.Since(start).Seconds()
	if err != nil {
		rep.Error = err.Error()
		c.metrics.reshardsFailed.Add(1)
		c.log.Warn("reshard failed", "from", from, "to", to, "err", err, "rolledBack", rep.RolledBack)
	} else {
		c.metrics.reshards.Add(1)
		c.metrics.reshardMovedClips.Add(int64(rep.MovedClips))
		c.log.Info("reshard complete", "from", from, "to", to,
			"moved", rep.MovedClips, "cutoverSeconds", rep.CutoverSeconds,
			"dualReadSeconds", rep.DualReadSeconds)
	}
	c.reshard.finish(rep)
	return rep, err
}

// reshardRun carries one migration's working state.
type reshardRun struct {
	c   *Coordinator
	rep *ReshardReport
	// old and target are the shard lists before and after the reshard;
	// diff names each clip's owner in both.
	old, target []*shard
	diff        *RingDiff
	// pushed maps each moved clip a destination holds to what sync last
	// pushed there: the next sync re-imports the clip only when a fresh
	// source export hashes differently, and rollback and cleanup visit
	// exactly these.
	pushed map[string]pushedClip
}

// pushedClip is the sha256 of the record last pushed for a moved clip
// and the destination shard that holds it.
type pushedClip struct {
	sum [32]byte
	dst *shard
}

// execute runs the three phases against the old topology and the
// target shard list. On any error before the topology swap it rolls
// back (deleting already-imported clips from destinations) and leaves
// the old topology in place.
func (run *reshardRun) execute(ctx context.Context, old *topology) error {
	c := run.c
	newRing := NewRing(len(run.target), c.vnodes)
	run.diff = old.ring.Diff(newRing)
	run.rep.MovedFraction = run.diff.MovedFraction()
	run.pushed = make(map[string]pushedClip)

	// Added shards must be reachable before a single byte moves: probe
	// them now (the background prober only learns about them after the
	// swap). A dead destination fails fast, with nothing to roll back.
	if len(run.target) > len(run.old) {
		for _, sh := range run.target[len(run.old):] {
			for _, n := range sh.nodes {
				c.probe(ctx, n)
			}
			if !sh.primary().isUp() {
				return fmt.Errorf("added shard %d primary %s is unreachable", sh.id, sh.primary().url)
			}
		}
	}

	// Phase 1 — online copy. Writes still flow, routed by the old ring;
	// whatever they change is reconciled by the cutover's sync.
	copyStart := time.Now()
	if _, err := run.sync(ctx); err != nil {
		run.rollback(ctx)
		return err
	}
	run.rep.CopySeconds = time.Since(copyStart).Seconds()

	// Phase 2 — cutover under the write barrier. In-flight writes
	// drain, new writes queue; reads keep flowing against the old
	// topology until the swap. The same sync runs again: it moves only
	// what changed since phase 1.
	c.reshard.setPhase("cutover")
	cutStart := time.Now()
	err := func() error {
		c.reshardMu.Lock()
		defer c.reshardMu.Unlock()
		changed, err := run.sync(ctx)
		if err != nil {
			return fmt.Errorf("cutover: %w", err)
		}
		run.rep.DeltaResynced = changed
		run.rep.MovedClips = len(run.pushed)
		c.topo.Store(newTopology(newRing, run.target))
		return nil
	}()
	run.rep.CutoverSeconds = time.Since(cutStart).Seconds()
	if err != nil {
		run.rollback(ctx)
		return err
	}

	// Reads that pinned the old topology ask only the old owners, so the
	// sources must keep the moved clips until those reads have gathered.
	// The wait is bounded by the fan-out timeout every such read runs
	// under; past it, cleanup proceeds.
	old.release()
	grace := time.NewTimer(c.timeout)
	select {
	case <-old.drained:
	case <-grace.C:
		c.log.Warn("reshard: reads on the old topology outlived the fan-out timeout; cleaning up anyway")
	}
	grace.Stop()

	// Phase 3 — cleanup: close the dual-read window by deleting the
	// moved clips from their old owners. Only surviving sources need it
	// (a removed shard is no longer queried, and shard identity is the
	// list ordinal); a failed delete is retried, and a clip that
	// ultimately cannot be deleted is logged — the merge collapses the
	// copies while identical; after a newer write to the owner the stale
	// copy shows too, until removed by hand.
	c.reshard.setPhase("cleanup")
	for name := range run.pushed {
		from, _ := run.diff.Owners(name)
		if from >= len(run.target) {
			continue
		}
		src := run.old[from]
		if err := run.deleteClip(ctx, src, name); err != nil {
			c.log.Warn("reshard cleanup delete failed; duplicate copy remains (merge collapses it while identical)",
				"clip", name, "shard", src.id, "err", err)
			continue
		}
		run.rep.DeletedFromSource++
	}
	run.rep.DualReadSeconds = time.Since(cutStart).Seconds() - run.rep.CutoverSeconds
	return nil
}

// sync makes the destinations hold exactly the moved clips the old
// shards hold as of one listing, and returns how many clips it copied
// or dropped. Each moved clip is exported from its source; it is
// imported and verified only when the payload's hash differs from what
// the last sync pushed. Verification re-exports the destination's copy
// and requires byte equality with the pushed payload: a record is a
// one-clip segment, a pure function of the clip's state, so byte
// equality is record equality. A moved clip the source no longer holds
// — absent from the listing, or listed but answering 404 to its export
// — is dropped from its destination: that is the one rule for a clip
// deleted mid-migration, so a copy never resurrects it.
func (run *reshardRun) sync(ctx context.Context) (changed int, err error) {
	names, err := run.listAll(ctx)
	if err != nil {
		return 0, fmt.Errorf("listing corpus: %w", err)
	}
	held := make(map[string]bool)
	for _, name := range names {
		if !run.diff.Moved(name) {
			continue
		}
		from, to := run.diff.Owners(name)
		src, dst := run.old[from], run.target[to]
		payload, err := run.exportClip(ctx, src, name)
		if errors.Is(err, errClipGone) {
			continue
		}
		if err != nil {
			return changed, fmt.Errorf("exporting clip %q from shard %d: %w", name, src.id, err)
		}
		held[name] = true
		sum := sha256.Sum256(payload)
		if p, ok := run.pushed[name]; ok && p.sum == sum {
			continue
		}
		// Recorded before the import, so a rollback also sweeps a copy
		// whose import or verification failed half-way.
		run.pushed[name] = pushedClip{sum: sum, dst: dst}
		if err := run.importAndVerify(ctx, name, payload, dst); err != nil {
			return changed, fmt.Errorf("copying clip %q to shard %d: %w", name, dst.id, err)
		}
		changed++
		run.c.reshard.progress(len(run.pushed), run.rep.CopiedClips)
	}
	for name, p := range run.pushed {
		if held[name] {
			continue
		}
		if err := run.deleteClip(ctx, p.dst, name); err != nil {
			return changed, fmt.Errorf("dropping clip %q from shard %d: %w", name, p.dst.id, err)
		}
		delete(run.pushed, name)
		changed++
	}
	run.c.reshard.progress(len(run.pushed), run.rep.CopiedClips)
	return changed, nil
}

// listAll returns the union of every old shard primary's clip listing,
// in name order. Unlike the scatter path it has no partial mode: a
// migration must see the complete corpus or not run, so any unreachable
// primary fails the listing (after retries).
func (run *reshardRun) listAll(ctx context.Context) ([]string, error) {
	parts := make([][]server.ClipSummary, len(run.old))
	for i, sh := range run.old {
		clips := &parts[i]
		err := run.retry(ctx, func() error {
			body, status, _, err := run.do(ctx, http.MethodGet, sh.primary().url+"/api/clips", nil)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("shard %d listing: status %d", sh.id, status)
			}
			return json.Unmarshal(body, clips)
		})
		if err != nil {
			return nil, err
		}
	}
	merged := mergeListings(parts)
	names := make([]string, len(merged))
	for i, cl := range merged {
		names[i] = cl.Name
	}
	return names, nil
}

// exportClip fetches one clip's record from a shard's primary.
func (run *reshardRun) exportClip(ctx context.Context, sh *shard, name string) ([]byte, error) {
	var payload []byte
	err := run.retry(ctx, func() error {
		body, status, _, err := run.do(ctx, http.MethodGet,
			sh.primary().url+"/api/replication/clip/"+url.PathEscape(name), nil)
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			payload = body
			return nil
		case http.StatusNotFound:
			return errClipGone
		default:
			return fmt.Errorf("export from shard %d: status %d", sh.id, status)
		}
	})
	return payload, err
}

// importAndVerify pushes a clip record to the destination primary and
// verifies the copy by re-exporting it and comparing bytes. Like any
// write, the import's journal position goes to the node (noteWrite).
func (run *reshardRun) importAndVerify(ctx context.Context, name string, payload []byte, dst *shard) error {
	err := run.retry(ctx, func() error {
		_, status, h, err := run.do(ctx, http.MethodPost, dst.primary().url+"/api/replication/clip", payload)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("import into shard %d: status %d", dst.id, status)
		}
		dst.primary().noteWrite(h)
		return nil
	})
	if err != nil {
		return err
	}
	run.rep.CopiedClips++
	echo, err := run.exportClip(ctx, dst, name)
	if errors.Is(err, errClipGone) {
		return fmt.Errorf("verification failed: destination shard %d does not hold the imported record", dst.id)
	}
	if err != nil {
		return fmt.Errorf("verify re-export: %w", err)
	}
	if string(echo) != string(payload) {
		return fmt.Errorf("verification failed: destination shard %d re-export differs from pushed record (%d vs %d bytes)",
			dst.id, len(echo), len(payload))
	}
	run.rep.VerifiedClips++
	return nil
}

// deleteClip removes one clip from a shard's primary; absence is
// success (deletes are idempotent cleanup), noting its journal position.
func (run *reshardRun) deleteClip(ctx context.Context, sh *shard, name string) error {
	return run.retry(ctx, func() error {
		_, status, h, err := run.do(ctx, http.MethodDelete,
			sh.primary().url+"/api/clips/"+url.PathEscape(name), nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK && status != http.StatusNotFound {
			return fmt.Errorf("delete from shard %d: status %d", sh.id, status)
		}
		sh.primary().noteWrite(h)
		return nil
	})
}

// rollback undoes a failed pre-cutover migration: every clip imported
// to a destination is deleted again, so the old topology (which stays
// in force) is also the only place the moved clips live. Best effort —
// an unreachable destination keeps its copies, which is harmless under
// the old ring (nothing routes to an added shard; a shrink destination
// serves a copy the merge collapses) and logged for the operator.
func (run *reshardRun) rollback(ctx context.Context) {
	run.rep.RolledBack = true
	for name, p := range run.pushed {
		if err := run.deleteClip(ctx, p.dst, name); err != nil {
			run.c.log.Warn("reshard rollback: could not delete copied clip from destination",
				"clip", name, "shard", p.dst.id, "err", err)
		}
	}
}

// retry runs one migration operation with the reshard's own retry
// discipline: up to reshardAttempts tries with doubling backoff.
// errClipGone and context cancellation are terminal, not retryable.
func (run *reshardRun) retry(ctx context.Context, f func() error) error {
	var last error
	for attempt := 0; attempt < reshardAttempts; attempt++ {
		if attempt > 0 {
			run.rep.Retries++
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(50<<(attempt-1)) * time.Millisecond):
			}
		}
		last = f()
		if last == nil || errors.Is(last, errClipGone) || errors.Is(last, context.Canceled) {
			return last
		}
	}
	return last
}

// do performs one HTTP attempt with the coordinator's fan-out timeout.
func (run *reshardRun) do(ctx context.Context, method, u string, body []byte) ([]byte, int, http.Header, error) {
	ctx, cancel := context.WithTimeout(ctx, run.c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := run.c.client.Do(req)
	if err != nil {
		return nil, 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, nil, err
	}
	return data, resp.StatusCode, resp.Header, nil
}
