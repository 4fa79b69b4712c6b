// Online resharding: the coordinator-driven migration engine behind
// POST /api/cluster/reshard. Growing or shrinking the shard list is a
// three-phase protocol built on the ring's minimal-movement guarantee:
//
//  1. Copy (online): compute the moved clip set from the old->new ring
//     diff, stream each moved clip from its current owner to its new
//     owner through the per-clip replication endpoints, and verify
//     every copy record for record (the destination's re-export must be
//     byte-identical to the pushed payload — a record is a one-clip
//     segment, a pure function of the clip's state, so byte equality is
//     record equality). Reads and writes flow normally; writes are
//     still routed by the old ring.
//  2. Cutover (write barrier): take the reshard write lock — in-flight
//     writes drain, new writes queue — re-list the corpus, delta-sync
//     clips that were written or deleted during the copy phase, then
//     swap the ring and shard list as one atomic topology pointer.
//     Reads never block; the barrier holds only for the delta, which is
//     proportional to the write traffic during the copy, not to the
//     corpus.
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
	"slices"
	"sync"
	"time"

	"videodb/internal/server"
)

// ErrReshardBusy reports a reshard request while one is already
// running; the coordinator migrates one membership change at a time.
var ErrReshardBusy = errors.New("cluster: a reshard is already in progress")

// errClipGone marks a migration source answering 404 for a clip: a
// concurrent delete won the race, and the clip simply no longer needs
// moving.
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
	// MovedClips is the final moved set's size; CopiedClips counts copy
	// operations performed (including cutover re-copies of clips that
	// changed during the copy phase); VerifiedClips counts byte-for-byte
	// copy verifications that passed.
	MovedClips    int `json:"movedClips"`
	CopiedClips   int `json:"copiedClips"`
	VerifiedClips int `json:"verifiedClips"`
	// DeltaResynced is how many clips the cutover barrier had to copy or
	// re-copy because they were written during the online copy phase;
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
// running or most recent reshard.
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
	run := &reshardRun{c: c, rep: rep}
	err := run.execute(ctx, old, target)
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
	if err != nil {
		return rep, err
	}
	return rep, nil
}

// reshardRun carries one migration's working state.
type reshardRun struct {
	c   *Coordinator
	rep *ReshardReport
	// copied maps each clip imported to a destination to the sha256 of
	// the payload that was pushed — the cutover delta compares a fresh
	// source export against it to decide whether a re-copy is needed,
	// and the rollback path deletes exactly these.
	copied map[string][32]byte
	// dest maps copied clips to their destination shard.
	dest map[string]*shard
}

// execute runs the three phases against the old topology and the
// target shard list. On any error before the topology swap it rolls
// back (deleting already-imported clips from destinations) and leaves
// the old topology in place.
func (run *reshardRun) execute(ctx context.Context, old *topology, target []*shard) error {
	c := run.c
	newRing := NewRing(len(target), c.vnodes)
	diff := old.ring.Diff(newRing)
	run.rep.MovedFraction = diff.MovedFraction()
	run.copied = make(map[string][32]byte)
	run.dest = make(map[string]*shard)

	// Added shards must be reachable before a single byte moves: probe
	// them now (the background prober only learns about them after the
	// swap). A dead destination fails fast, with nothing to roll back.
	if len(target) > len(old.shards) {
		for _, sh := range target[len(old.shards):] {
			for _, n := range sh.nodes {
				c.probe(ctx, n)
			}
			if !sh.primary().isUp() {
				return fmt.Errorf("added shard %d primary %s is unreachable", sh.id, sh.primary().url)
			}
		}
	}

	// Phase 1 — online copy. Writes still flow, routed by the old ring;
	// whatever they change is reconciled by the cutover delta.
	copyStart := time.Now()
	names, err := run.listAll(ctx, old.shards)
	if err != nil {
		return fmt.Errorf("listing corpus: %w", err)
	}
	var moved []string
	for _, name := range names {
		if diff.Moved(name) {
			moved = append(moved, name)
		}
	}
	c.reshard.progress(len(moved), 0)
	for i, name := range moved {
		src, dst := run.route(diff, old.shards, target, name)
		if err := run.copyClip(ctx, name, src, dst); err != nil {
			if errors.Is(err, errClipGone) {
				continue // deleted mid-copy; the cutover delta confirms
			}
			run.rollback(ctx)
			return fmt.Errorf("copying clip %q to shard %d: %w", name, dst.id, err)
		}
		c.reshard.progress(len(moved), i+1)
	}
	run.rep.CopySeconds = time.Since(copyStart).Seconds()

	// Phase 2 — cutover under the write barrier. In-flight writes
	// drain, new writes queue; reads keep flowing against the old
	// topology until the swap.
	c.reshard.setPhase("cutover")
	cutStart := time.Now()
	err = func() error {
		c.reshardMu.Lock()
		defer c.reshardMu.Unlock()
		finalNames, err := run.listAll(ctx, old.shards)
		if err != nil {
			return fmt.Errorf("cutover listing: %w", err)
		}
		finalMoved := 0
		for _, name := range finalNames {
			if !diff.Moved(name) {
				continue
			}
			finalMoved++
			src, dst := run.route(diff, old.shards, target, name)
			changed, err := run.syncClip(ctx, name, src, dst)
			if err != nil {
				return fmt.Errorf("cutover sync of clip %q: %w", name, err)
			}
			if changed {
				run.rep.DeltaResynced++
			}
		}
		// Clips copied in phase 1 but deleted since: the copy must not
		// resurrect them.
		for name, dst := range run.dest {
			if _, present := slices.BinarySearch(finalNames, name); !present {
				if err := run.deleteClip(ctx, dst, name); err != nil {
					return fmt.Errorf("cutover delete of clip %q: %w", name, err)
				}
				delete(run.copied, name)
				delete(run.dest, name)
				run.rep.DeltaResynced++
			}
		}
		run.rep.MovedClips = finalMoved
		c.reshard.progress(finalMoved, run.rep.CopiedClips)
		c.topo.Store(newTopology(newRing, target))
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
	// (a removed shard is no longer queried); a failed delete is
	// retried, and a clip that ultimately cannot be deleted is logged —
	// the merge collapses the copies while identical; after a newer write
	// to the owner the stale copy shows too, until removed by hand.
	c.reshard.setPhase("cleanup")
	surviving := make(map[*shard]bool, len(target))
	for _, sh := range target {
		surviving[sh] = true
	}
	for name := range run.copied {
		src, _ := run.route(diff, old.shards, target, name)
		if !surviving[src] {
			continue
		}
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

// route returns a moved clip's source shard (old topology) and
// destination shard (target list).
func (run *reshardRun) route(diff *RingDiff, oldShards, target []*shard, name string) (src, dst *shard) {
	from, to := diff.Owners(name)
	return oldShards[from], target[to]
}

// listAll returns the union of every shard primary's clip listing, in
// name order. Unlike the scatter path it has no partial mode: a
// migration must see the complete corpus or not run, so any unreachable
// primary fails the listing (after retries).
func (run *reshardRun) listAll(ctx context.Context, shards []*shard) ([]string, error) {
	parts := make([][]server.ClipSummary, len(shards))
	for i, sh := range shards {
		clips := &parts[i]
		err := run.retry(ctx, func() error {
			body, status, err := run.do(ctx, http.MethodGet, sh.primary().url+"/api/clips", nil)
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

// copyClip migrates one clip: export from the source primary, import
// into the destination primary, then re-export from the destination
// and require byte equality with the pushed payload — record-for-record
// verification, sound because the record encoding is deterministic.
func (run *reshardRun) copyClip(ctx context.Context, name string, src, dst *shard) error {
	payload, err := run.exportClip(ctx, src, name)
	if err != nil {
		return err
	}
	if err := run.importAndVerify(ctx, name, payload, dst); err != nil {
		return err
	}
	run.copied[name] = sha256.Sum256(payload)
	run.dest[name] = dst
	return nil
}

// syncClip is the cutover-barrier reconciliation of one moved clip: a
// fresh source export is compared against what phase 1 copied; only a
// clip that is new or changed since is (re)imported. Returns whether a
// copy happened.
func (run *reshardRun) syncClip(ctx context.Context, name string, src, dst *shard) (bool, error) {
	payload, err := run.exportClip(ctx, src, name)
	if errors.Is(err, errClipGone) {
		// Listed but gone before we could export: a delete raced the
		// listing. If phase 1 copied it, the absence pass below-cutover
		// handles it via the fresh listing on the next reshard; here the
		// destination copy must go too.
		if _, ok := run.copied[name]; ok {
			if derr := run.deleteClip(ctx, dst, name); derr != nil {
				return false, derr
			}
			delete(run.copied, name)
			delete(run.dest, name)
			return true, nil
		}
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if prev, ok := run.copied[name]; ok && prev == sha256.Sum256(payload) {
		return false, nil
	}
	if err := run.importAndVerify(ctx, name, payload, dst); err != nil {
		return false, err
	}
	run.copied[name] = sha256.Sum256(payload)
	run.dest[name] = dst
	return true, nil
}

// exportClip fetches one clip's record from a shard's primary.
func (run *reshardRun) exportClip(ctx context.Context, sh *shard, name string) ([]byte, error) {
	var payload []byte
	err := run.retry(ctx, func() error {
		body, status, err := run.do(ctx, http.MethodGet,
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
// verifies the copy by re-exporting it and comparing bytes.
func (run *reshardRun) importAndVerify(ctx context.Context, name string, payload []byte, dst *shard) error {
	err := run.retry(ctx, func() error {
		_, status, err := run.do(ctx, http.MethodPost, dst.primary().url+"/api/replication/clip", payload)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("import into shard %d: status %d", dst.id, status)
		}
		return nil
	})
	if err != nil {
		return err
	}
	run.rep.CopiedClips++
	echo, err := run.exportClip(ctx, dst, name)
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
// success (deletes are idempotent cleanup).
func (run *reshardRun) deleteClip(ctx context.Context, sh *shard, name string) error {
	return run.retry(ctx, func() error {
		_, status, err := run.do(ctx, http.MethodDelete,
			sh.primary().url+"/api/clips/"+url.PathEscape(name), nil)
		if err != nil {
			return err
		}
		if status != http.StatusOK && status != http.StatusNotFound {
			return fmt.Errorf("delete from shard %d: status %d", sh.id, status)
		}
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
	for name, dst := range run.dest {
		if err := run.deleteClip(ctx, dst, name); err != nil {
			run.c.log.Warn("reshard rollback: could not delete copied clip from destination",
				"clip", name, "shard", dst.id, "err", err)
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
func (run *reshardRun) do(ctx context.Context, method, u string, body []byte) ([]byte, int, error) {
	ctx, cancel := context.WithTimeout(ctx, run.c.timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := run.c.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	return data, resp.StatusCode, nil
}
