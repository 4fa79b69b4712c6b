package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"videodb/internal/cluster"
	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/wal"
)

// The systems under test run in this process on real loopback
// listeners, configured the way the shipped binaries default.

// queryCacheEntries is vdbserver's -query-cache default.
const queryCacheEntries = 4096

// listener is one HTTP server on 127.0.0.1:0.
type listener struct {
	URL string
	srv *http.Server
	err chan error
}

// listen serves h on a fresh loopback port with vdbserver's
// connection timeouts.
func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{
		URL: "http://" + ln.Addr().String(),
		srv: &http.Server{
			Handler:           h,
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       5 * time.Minute,
			WriteTimeout:      10 * time.Minute,
			IdleTimeout:       2 * time.Minute,
		},
		err: make(chan error, 1),
	}
	go func() { l.err <- l.srv.Serve(ln) }()
	return l, nil
}

// stop drains the server and waits for its accept loop to exit.
func (l *listener) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.err
}

// node is one vdbserver-equivalent: a database behind server.New.
type node struct {
	*listener
	DB      *core.Database
	Handler http.Handler
}

func openDB() (*core.Database, error) {
	return core.Open(core.DefaultOptions(), core.WithQueryCache(queryCacheEntries))
}

func startNode(db *core.Database, opts ...server.Option) (*node, error) {
	h := server.New(db, opts...).Handler()
	l, err := listen(h)
	if err != nil {
		return nil, err
	}
	return &node{listener: l, DB: db, Handler: h}, nil
}

// startMemNode boots an in-memory node holding payloads.
func startMemNode(payloads []clipPayload) (*node, error) {
	db, err := openDB()
	if err != nil {
		return nil, err
	}
	if err := load(db, payloads); err != nil {
		return nil, err
	}
	return startNode(db)
}

// clusterSUT is a coordinator over three in-memory shard nodes.
type clusterSUT struct {
	*listener
	Coord  *cluster.Coordinator
	Shards []*node
}

const clusterShards = 3

// startCluster places payloads by the ring and boots shards and a
// coordinator with cmd/vdbcoord's flag defaults and its transport.
func startCluster(payloads []clipPayload) (*clusterSUT, error) {
	ring := cluster.NewRing(clusterShards, cluster.DefaultVnodes)
	parts := make([][]clipPayload, clusterShards)
	for _, p := range payloads {
		o := ring.Owner(p.Name)
		parts[o] = append(parts[o], p)
	}
	cs := &clusterSUT{}
	cfg := cluster.Config{
		Vnodes:        cluster.DefaultVnodes,
		Timeout:       10 * time.Second,
		Retries:       1,
		RetryBudget:   0.2,
		Hedge:         true,
		HedgeDelay:    50 * time.Millisecond,
		ProbeInterval: 2 * time.Second,
	}
	for _, part := range parts {
		n, err := startMemNode(part)
		if err != nil {
			cs.stop()
			return nil, err
		}
		cs.Shards = append(cs.Shards, n)
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Primary: n.URL})
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		cs.stop()
		return nil, err
	}
	cs.Coord = coord
	if cs.listener, err = listen(coord.Handler()); err != nil {
		cs.stop()
		return nil, err
	}
	return cs, nil
}

func (cs *clusterSUT) stop() {
	if cs.listener != nil {
		cs.listener.stop()
	}
	if cs.Coord != nil {
		cs.Coord.Close()
	}
	for _, n := range cs.Shards {
		n.stop()
	}
}

// storeSUT is one node on a segment store with its WAL on.
type storeSUT struct {
	*node
	Store *segstore.Store
}

// storeOptions mirrors `vdbserver -data` defaults: -sync interval,
// -sync-interval 1s, -fanout 4, the default clip cache.
func storeOptions() segstore.Options {
	return segstore.Options{
		Core:         core.DefaultOptions(),
		Extra:        []core.OpenOption{core.WithQueryCache(queryCacheEntries)},
		ClipCache:    core.DefaultClipCache,
		Policy:       wal.PolicyInterval,
		SyncInterval: time.Second,
		Fanout:       segstore.DefaultFanout,
	}
}

// serveStore puts the server in front of an open store, as vdbserver
// wires it. No time-driven compactor: the workload triggers
// maintenance by write count so cycles repeat exactly.
func serveStore(st *segstore.Store) (*storeSUT, error) {
	n, err := startNode(st.DB(),
		server.WithStorage(st),
		server.WithJournal(st.Journal()),
		server.WithRecoveryInfo(st.Replay()))
	if err != nil {
		return nil, err
	}
	return &storeSUT{node: n, Store: st}, nil
}

// startStore initializes a store in dir, imports payloads through the
// WAL, flushes them into one segment and serves it.
func startStore(dir string, payloads []clipPayload) (*storeSUT, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st, err := segstore.Open(dir, storeOptions())
	if err != nil {
		return nil, err
	}
	if err := load(st.DB(), payloads); err != nil {
		_ = st.Close()
		return nil, err
	}
	if _, err := st.Flush(); err != nil {
		_ = st.Close()
		return nil, fmt.Errorf("flushing preload: %w", err)
	}
	s, err := serveStore(st)
	if err != nil {
		_ = st.Close()
		return nil, err
	}
	return s, nil
}

func (s *storeSUT) stop() error {
	s.node.stop()
	return s.Store.Close()
}
