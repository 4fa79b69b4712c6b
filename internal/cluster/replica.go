package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/wal"
)

// Replica follows a primary: it bootstraps the database from the
// primary's replication snapshot, then tails the primary's journal,
// replaying each shipped record through the same idempotent apply path
// startup recovery uses (wal.ApplyRecord: ImportClipRecord and Remove,
// on a database that never has a journal). State only ever enters the
// database through that stream — the process runs the HTTP API
// read-only — so the replica is a consistent, possibly slightly stale
// copy of the primary at all times.
//
// Failure handling is re-convergent rather than precise: a 409 from
// the WAL endpoint (primary restarted, cut flushed away), a torn chunk
// that yields no whole record, or any doubt about where the stream
// stands sends the replica back to a full snapshot bootstrap, which is
// always correct because ApplySnapshot replaces the state wholesale.
type Replica struct {
	db       *core.Database
	primary  string
	client   *http.Client
	interval time.Duration
	log      *slog.Logger

	stop   chan struct{}
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu          sync.Mutex
	cut         int64  // next journal position to request
	gen         string // journal generation the cut belongs to
	primarySize int64  // primary's journal size at the last poll
	applied     int64  // records replayed
	bootstraps  int64  // full snapshot bootstraps (1 = clean start)
	lastErr     string
}

// ReplicaOption configures StartReplica.
type ReplicaOption func(*Replica)

// WithReplicaInterval sets the WAL poll period (default 250ms). The
// replica polls immediately again while it knows the primary has more
// bytes, so the interval only bounds idle-time staleness.
func WithReplicaInterval(d time.Duration) ReplicaOption {
	return func(r *Replica) { r.interval = d }
}

// WithReplicaLogger directs the replication log; nil discards.
func WithReplicaLogger(l *slog.Logger) ReplicaOption {
	return func(r *Replica) { r.log = l }
}

// StartReplica begins replicating primaryURL into db and returns the
// running replica. db should be empty (anything in it is replaced by
// the first bootstrap). Stop with Close.
func StartReplica(db *core.Database, primaryURL string, opts ...ReplicaOption) *Replica {
	r := &Replica{
		db:       db,
		primary:  primaryURL,
		client:   &http.Client{Transport: newTransport()},
		interval: 250 * time.Millisecond,
		log:      discardLogger,
		stop:     make(chan struct{}),
	}
	for _, o := range opts {
		o(r)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	r.wg.Add(1)
	go r.loop(ctx)
	return r
}

// Close stops the replication loop, waits for it to exit and closes its
// idle connections. The database keeps the last applied state.
func (r *Replica) Close() {
	close(r.stop)
	r.cancel()
	r.wg.Wait()
	r.client.CloseIdleConnections()
}

// Stats returns the current replication progress; it is the
// server.Replication a replica's server is built with (server.WithReplica).
func (r *Replica) Stats() server.ReplicationStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	lag := int64(-1)
	if r.gen != "" {
		lag = max(r.primarySize-r.cut, 0)
	}
	return server.ReplicationStatus{
		Cut: r.cut, Gen: r.gen, LagBytes: lag, Primary: r.primary,
		Applied: r.applied, Bootstraps: r.bootstraps, LastError: r.lastErr,
	}
}

// loop drives the replication: bootstrap until one succeeds, then tail
// the WAL, polling immediately while behind and every interval when
// caught up.
func (r *Replica) loop(ctx context.Context) {
	defer r.wg.Done()
	for {
		more, err := r.step(ctx)
		if err != nil {
			r.setErr(err)
			r.log.Warn("replication step failed", "err", err)
		} else {
			r.setErr(nil)
		}
		if more && err == nil {
			// Known backlog: keep draining without sleeping.
			select {
			case <-r.stop:
				return
			default:
				continue
			}
		}
		select {
		case <-r.stop:
			return
		case <-time.After(r.interval):
		}
	}
}

func (r *Replica) setErr(err error) {
	r.mu.Lock()
	if err != nil {
		r.lastErr = err.Error()
	} else {
		r.lastErr = ""
	}
	r.mu.Unlock()
}

// step advances replication by one round trip: a bootstrap when no
// generation is held, one WAL poll otherwise. It reports whether the
// primary is known to have more bytes waiting.
func (r *Replica) step(ctx context.Context) (more bool, err error) {
	r.mu.Lock()
	gen := r.gen
	cut := r.cut
	r.mu.Unlock()
	if gen == "" {
		return false, r.bootstrap(ctx)
	}
	return r.pollWAL(ctx, cut, gen)
}

// bootstrap replaces the database from the primary's replication
// snapshot and adopts the (cut, gen) pair it was captured at.
func (r *Replica) bootstrap(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.primary+"/api/replication/snapshot", nil)
	if err != nil {
		return err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return fmt.Errorf("bootstrap: primary answered %d: %s", resp.StatusCode, body)
	}
	cut, err := strconv.ParseInt(resp.Header.Get(server.HeaderWalCut), 10, 64)
	if err != nil {
		return fmt.Errorf("bootstrap: bad %s header: %w", server.HeaderWalCut, err)
	}
	gen := resp.Header.Get(server.HeaderWalGen)
	if gen == "" {
		return fmt.Errorf("bootstrap: primary sent no %s header", server.HeaderWalGen)
	}
	// The primary declares the body's length, so a transfer cut short
	// fails here instead of reaching the decoder.
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("bootstrap: reading snapshot: %w", err)
	}
	if err := r.db.ApplySnapshot(body); err != nil {
		return fmt.Errorf("bootstrap: %w", err)
	}
	r.mu.Lock()
	r.cut = cut
	r.gen = gen
	r.primarySize = cut
	r.bootstraps++
	r.mu.Unlock()
	r.log.Info("replica bootstrapped", "cut", cut, "gen", gen)
	return nil
}

// pollWAL fetches and applies one journal chunk.
func (r *Replica) pollWAL(ctx context.Context, cut int64, gen string) (more bool, err error) {
	url := fmt.Sprintf("%s/api/replication/wal?from=%d&gen=%s", r.primary, cut, gen)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return false, err
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return false, fmt.Errorf("wal poll: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		// The primary restarted or flushed away the records at our cut:
		// our position means nothing anymore. Drop the generation and
		// let the next step re-bootstrap.
		r.forgetGeneration()
		r.log.Info("journal generation changed; re-bootstrapping",
			"had", gen, "primary", resp.Header.Get(server.HeaderWalGen))
		return true, nil
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		return false, fmt.Errorf("wal poll: primary answered %d: %s", resp.StatusCode, body)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return false, fmt.Errorf("wal poll: reading chunk: %w", err)
	}
	size, _ := strconv.ParseInt(resp.Header.Get(server.HeaderWalSize), 10, 64)
	if len(data) == 0 {
		r.mu.Lock()
		r.primarySize = size
		r.mu.Unlock()
		return false, nil // caught up
	}
	res, err := wal.ReplayRecords(bytes.NewReader(data), func(rec wal.Record) error {
		return wal.ApplyRecord(r.db, rec)
	})
	if err != nil {
		// The frame was intact but the payload did not apply: the
		// stream is suspect as a whole. Re-converge from a snapshot.
		r.forgetGeneration()
		return true, fmt.Errorf("wal poll: applying chunk: %w", err)
	}
	if res.ValidBytes == 0 {
		// A non-empty chunk with no whole record: either the first
		// record is larger than the primary's chunk cap or the stream
		// is corrupt. Polling again would repeat the exact failure, so
		// re-converge from a snapshot (which always makes progress).
		r.forgetGeneration()
		return true, fmt.Errorf("wal poll: no whole record in %d-byte chunk (%s); re-bootstrapping",
			len(data), res.Reason)
	}
	// A Damaged tail with ValidBytes > 0 is the normal case of a record
	// straddling the chunk cap: advance past the whole records applied
	// and refetch the straddler from its start next poll.
	r.mu.Lock()
	r.cut = cut + res.ValidBytes
	r.applied += int64(res.Records)
	r.primarySize = size
	behind := r.cut < size
	r.mu.Unlock()
	return behind, nil
}

// forgetGeneration drops the stream position so the next step runs a
// full bootstrap.
func (r *Replica) forgetGeneration() {
	r.mu.Lock()
	r.gen = ""
	r.cut = 0
	r.mu.Unlock()
}
