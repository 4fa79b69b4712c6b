package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videodb/internal/server"
)

// fakeBackend is a stub shard node: a mutable /api/health document, a
// hit-counted /api/query that always answers an empty match list, and
// a POST /api/clips that acknowledges every upload with the journal
// position in write. It lets staleness tests dial lag, generation, and
// liveness exactly.
type fakeBackend struct {
	mu      sync.Mutex
	doc     server.HealthJSON
	write   server.JournalHealth
	queries atomic.Int64
	ts      *httptest.Server
}

func newFakeBackend(t *testing.T, doc server.HealthJSON) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{doc: doc}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/health", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(fb.doc)
	})
	mux.HandleFunc("GET /api/query", func(w http.ResponseWriter, r *http.Request) {
		fb.queries.Add(1)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, "[]")
	})
	mux.HandleFunc("POST /api/clips", func(w http.ResponseWriter, r *http.Request) {
		fb.mu.Lock()
		pos := fb.write
		fb.mu.Unlock()
		w.Header().Set(server.HeaderWalGen, pos.WalGen)
		w.Header().Set(server.HeaderWalSize, strconv.FormatInt(pos.WalSize, 10))
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, "{}")
	})
	fb.ts = httptest.NewServer(mux)
	t.Cleanup(fb.ts.Close)
	return fb
}

func (fb *fakeBackend) setDoc(doc server.HealthJSON) {
	fb.mu.Lock()
	fb.doc = doc
	fb.mu.Unlock()
}

// testContext returns a context canceled when the test ends.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}

// primaryDoc/replicaDoc build the health-document fields the lag
// computation reads, in the shape the real server emits.
func primaryDoc(walSize int64, gen string) server.HealthJSON {
	return server.HealthJSON{JournalHealth: &server.JournalHealth{WalSize: walSize, WalGen: gen}}
}

func replicaDoc(cut int64, gen string) server.HealthJSON {
	return server.HealthJSON{ReplicationStatus: &server.ReplicationStatus{Cut: cut, Gen: gen}}
}

// newStalenessCluster is one shard (primary + one replica, both fake)
// behind a coordinator with replica reads at the given bound. The
// probe interval is an hour: tests drive probing explicitly, so health
// state changes exactly when a test says so.
func newStalenessCluster(t *testing.T, bound int64) (*Coordinator, *httptest.Server, *fakeBackend, *fakeBackend) {
	t.Helper()
	p := newFakeBackend(t, primaryDoc(1000, "g1"))
	r := newFakeBackend(t, replicaDoc(1000, "g1"))
	c, err := New(Config{
		Shards:         []ShardConfig{{Primary: p.ts.URL, Replicas: []string{r.ts.URL}}},
		ReplicaReads:   true,
		StalenessBound: bound,
		ProbeInterval:  time.Hour,
		Timeout:        2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	front := httptest.NewServer(c.Handler())
	t.Cleanup(front.Close)
	c.probeAll(testContext(t))
	return c, front, p, r
}

// TestReplicaLagGate pins the eligibility rule on which every replica
// read rests: lag at most the bound (inclusive boundary), computed
// only when the generations match, with every unknowable case falling
// back to the primary.
func TestReplicaLagGate(t *testing.T) {
	const bound = 100
	cases := []struct {
		name     string
		primary  server.HealthJSON
		replica  server.HealthJSON
		down     bool
		eligible bool
	}{
		{"caught up", primaryDoc(1000, "g1"), replicaDoc(1000, "g1"), false, true},
		{"within bound", primaryDoc(1000, "g1"), replicaDoc(950, "g1"), false, true},
		{"exactly at bound", primaryDoc(1000, "g1"), replicaDoc(900, "g1"), false, true},
		{"one byte over", primaryDoc(1000, "g1"), replicaDoc(899, "g1"), false, false},
		{"far behind", primaryDoc(1000, "g1"), replicaDoc(0, "g1"), false, false},
		{"generation bumped", primaryDoc(1000, "g2"), replicaDoc(1000, "g1"), false, false},
		{"replica ahead clamps", primaryDoc(1000, "g1"), replicaDoc(1200, "g1"), false, true},
		{"primary doc missing fields", server.HealthJSON{}, replicaDoc(1000, "g1"), false, false},
		{"replica doc missing fields", primaryDoc(1000, "g1"), server.HealthJSON{}, false, false},
		{"replica down", primaryDoc(1000, "g1"), replicaDoc(1000, "g1"), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sh := newShard(0, ShardConfig{Primary: "http://p", Replicas: []string{"http://r"}})
			sh.primary().markUp(&tc.primary)
			rep := sh.nodes[1]
			if tc.down {
				rep.markDown(fmt.Errorf("test: down"))
			} else {
				rep.markUp(&tc.replica)
			}
			if got := sh.eligibleForRead(rep, bound); got != tc.eligible {
				lag, ok := sh.replicaLag(rep)
				t.Errorf("eligible = %v, want %v (lag %d known %v)", got, tc.eligible, lag, ok)
			}
			// The primary itself is never a "replica read" candidate.
			if sh.eligibleForRead(sh.primary(), bound) {
				t.Error("primary passed the replica-read gate")
			}
		})
	}
}

// TestStalenessBoundProperty is the bound's property test: across
// randomized lag/generation/liveness states, whenever the rotated read
// order puts a replica first, that replica's known lag is at most the
// bound. No replica read ever exceeds the staleness bound — the
// invariant the flag's name promises.
func TestStalenessBoundProperty(t *testing.T) {
	const bound = 256
	c, _, p, r := newStalenessCluster(t, bound)
	sh := c.topo.Load().shards[0]
	rng := rand.New(rand.NewSource(43))
	replicaFirst := 0
	for i := 0; i < 400; i++ {
		primarySize := int64(1000 + rng.Intn(4000))
		gen := "g1"
		if rng.Intn(10) == 0 {
			gen = "g2" // primary rotated; replica still on g1
		}
		cut := primarySize - int64(rng.Intn(2*bound+1))
		p.setDoc(primaryDoc(primarySize, gen))
		r.setDoc(replicaDoc(cut, "g1"))
		c.probeAll(testContext(t))
		for j := 0; j < 3; j++ {
			order := c.readOrder(sh)
			if len(order) == 0 {
				t.Fatal("empty read order")
			}
			if !order[0].replica {
				continue
			}
			replicaFirst++
			lag, ok := sh.replicaLag(order[0])
			if !ok {
				t.Fatalf("iteration %d: replica served a read with unknowable lag (gen %s)", i, gen)
			}
			if lag > bound {
				t.Fatalf("iteration %d: replica read at lag %d exceeds bound %d", i, lag, bound)
			}
		}
	}
	if replicaFirst == 0 {
		t.Error("rotation never chose the replica across 1200 reads")
	}
	if got := sh.replicaReads.Load(); got != int64(replicaFirst) {
		t.Errorf("replicaReads counter %d, want %d", got, replicaFirst)
	}
}

// TestGenerationBumpFallsBackToPrimary: a caught-up replica serves
// rotated reads until the primary rotates its journal; from then on
// (until re-bootstrap) the lag is unknowable and every read goes to
// the primary.
func TestGenerationBumpFallsBackToPrimary(t *testing.T) {
	c, _, p, _ := newStalenessCluster(t, 0)
	sh := c.topo.Load().shards[0]
	sawReplica := false
	for i := 0; i < 10; i++ {
		if c.readOrder(sh)[0].replica {
			sawReplica = true
		}
	}
	if !sawReplica {
		t.Fatal("caught-up replica never rotated into the first slot")
	}

	p.setDoc(primaryDoc(1200, "g2")) // rotation: new generation
	c.probeAll(testContext(t))
	before := sh.primaryReads.Load()
	for i := 0; i < 20; i++ {
		if c.readOrder(sh)[0].replica {
			t.Fatal("replica served a read across a generation bump")
		}
	}
	if got := sh.primaryReads.Load(); got != before+20 {
		t.Errorf("primaryReads advanced %d, want 20", got-before)
	}
}

// TestReplicaReadsServeTrafficAndCount drives real HTTP queries
// through the coordinator: the rotation must spread them across
// primary and replica, the status document's per-shard counters must
// match, and raising the effective lag past the bound must pin
// subsequent reads back to the primary.
func TestReplicaReadsServeTrafficAndCount(t *testing.T) {
	const bound = 100
	c, front, p, r := newStalenessCluster(t, bound)
	get := func() {
		t.Helper()
		resp, err := http.Get(front.URL + "/api/query?varba=10&varoa=10")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query status %d", resp.StatusCode)
		}
	}
	const n = 20
	for i := 0; i < n; i++ {
		get()
	}
	pHits, rHits := p.queries.Load(), r.queries.Load()
	if rHits == 0 {
		t.Fatal("replica served no queries although caught up and enabled")
	}
	if pHits == 0 {
		t.Fatal("primary served no queries; rotation must include it")
	}

	var st StatusJSON
	if code, _ := getJSON(t, front.URL+"/api/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if !st.ReplicaReadsEnabled || st.StalenessBoundBytes != bound {
		t.Errorf("status advertises replicaReads=%v bound=%d, want true/%d",
			st.ReplicaReadsEnabled, st.StalenessBoundBytes, bound)
	}
	shardSt := st.Shards[0]
	if shardSt.PrimaryReads+shardSt.ReplicaReads < n {
		t.Errorf("read counters %d+%d cover fewer than the %d reads issued",
			shardSt.PrimaryReads, shardSt.ReplicaReads, n)
	}
	if shardSt.ReplicaReads == 0 {
		t.Error("status shows zero replica reads after replica-served traffic")
	}

	// Push the replica past the bound: all further first slots go to
	// the primary, and the replica counter freezes. The coordinator
	// probes hourly here, so force the new health state in.
	r.setDoc(replicaDoc(0, "g1"))
	stale := st.Shards[0].ReplicaReads
	c.probeAll(testContext(t))
	for i := 0; i < n; i++ {
		get()
	}
	if code, _ := getJSON(t, front.URL+"/api/cluster/status", &st); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if got := st.Shards[0].ReplicaReads; got != stale {
		t.Errorf("replica reads advanced from %d to %d with lag over the bound", stale, got)
	}
	if st.Shards[0].PrimaryReads < shardSt.PrimaryReads+int64(n) {
		t.Error("primary did not absorb the reads the lagging replica lost")
	}
	// Counters are monotone: they only ever grow.
	if st.Shards[0].PrimaryReads < shardSt.PrimaryReads || st.Shards[0].ReplicaReads < shardSt.ReplicaReads {
		t.Error("read-balance counters went backward")
	}
}

// TestOlderProbeNeverOverwritesNewer: two probes of one node overlap
// and the one that started first answers last, carrying the health
// document from before a journal rotation. The node must keep the
// newer probe's document.
func TestOlderProbeNeverOverwritesNewer(t *testing.T) {
	var mu sync.Mutex
	doc := primaryDoc(1000, "g1")
	var first atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		captured := doc
		mu.Unlock()
		if first.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(captured)
	}))
	t.Cleanup(ts.Close)

	c := &Coordinator{client: &http.Client{}}
	n := &node{url: ts.URL, up: true}
	ctx := testContext(t)
	older := make(chan struct{})
	go func() {
		defer close(older)
		c.probe(ctx, n)
	}()
	<-entered
	mu.Lock()
	doc = primaryDoc(1200, "g2")
	mu.Unlock()
	c.probe(ctx, n)
	close(release)
	<-older

	if gen := n.healthDoc().WalGen; gen != "g2" {
		t.Fatalf("node holds walGen %q after the older probe finished, want the newer probe's g2", gen)
	}
	if !n.isUp() {
		t.Fatal("node marked down after two successful probes")
	}
}

// TestStalenessBoundZeroSeesCoordinatorWrites: at bound 0 a write
// acknowledged through the coordinator is never missed by a rotated
// read. The primary's answer carries its journal position; the replica
// has not applied it, and no probe has seen it (the probe interval is
// an hour), so the last probe still reads the replica at lag 0. The
// write's position alone must keep every read on the primary — also
// when the write lands in a generation no probe has seen yet — until a
// probe finds the replica caught up again.
func TestStalenessBoundZeroSeesCoordinatorWrites(t *testing.T) {
	c, front, p, r := newStalenessCluster(t, 0)
	write := func(gen string, size int64) {
		t.Helper()
		p.mu.Lock()
		p.write = server.JournalHealth{WalGen: gen, WalSize: size}
		p.mu.Unlock()
		resp, err := http.Post(front.URL+"/api/clips?name=w", "application/octet-stream", strings.NewReader("clip"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("write status %d", resp.StatusCode)
		}
	}
	// reads issues 8 queries and returns how many the replica served.
	reads := func() int64 {
		t.Helper()
		before := r.queries.Load()
		for i := 0; i < 8; i++ {
			resp, err := http.Get(front.URL + "/api/query?varba=10&varoa=10")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("query status %d", resp.StatusCode)
			}
		}
		return r.queries.Load() - before
	}

	write("g1", 1400)
	if n := reads(); n != 0 {
		t.Fatalf("replica served %d of 8 reads before applying an acknowledged write", n)
	}
	write("g2", 100) // the primary rotated since the last probe
	if n := reads(); n != 0 {
		t.Fatalf("replica served %d of 8 reads across a generation only the write has shown", n)
	}
	p.setDoc(primaryDoc(100, "g2"))
	r.setDoc(replicaDoc(100, "g2"))
	c.probeAll(testContext(t))
	if n := reads(); n == 0 {
		t.Fatal("caught-up replica served no reads after the probe saw it apply the write")
	}
}

// TestStalenessWriteOutrunsOlderProbe: a probe that started before a
// write was acknowledged answers after it, with the journal position
// from before the write. The node must keep the write's position.
func TestStalenessWriteOutrunsOlderProbe(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(primaryDoc(1000, "g1"))
	}))
	t.Cleanup(ts.Close)

	c := &Coordinator{client: &http.Client{}}
	n := &node{url: ts.URL, up: true}
	probed := make(chan struct{})
	go func() {
		defer close(probed)
		c.probe(testContext(t), n)
	}()
	<-entered
	h := http.Header{}
	h.Set(server.HeaderWalGen, "g1")
	h.Set(server.HeaderWalSize, "1400")
	n.noteWrite(h)
	close(release)
	<-probed

	if doc := n.healthDoc(); doc.JournalHealth == nil || doc.WalSize != 1400 {
		t.Fatalf("node holds %+v after the older probe finished, want the write's walSize 1400", doc.JournalHealth)
	}
}
