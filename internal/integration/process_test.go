package integration

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os/exec"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"videodb/internal/cluster"
	"videodb/internal/server"
)

// The process tests start the real vdbserver and vdbcoord binaries on
// loopback, each test on its own block of ports, and check what only
// real processes show: signals, flag parsing, real sockets and the
// binaries' shutdown. They run when VIDEODB_PROCESS_TESTS=1 (make
// cluster-smoke, chaos-smoke and reshard-smoke set it), one at a time.

// TestClusterProcesses boots three shard primaries on segment stores, a
// read replica of shard 0 and a coordinator, ingests the corpus through
// the coordinator, and SIGTERMs shard 2 three seconds into an
// eight-second load. The coordinator must absorb the loss: no 5xx and
// no transport error, degraded answers marked partial, the dead node
// shown down, and the replica still caught up afterwards.
func TestClusterProcesses(t *testing.T) {
	p := startProcSet(t, "cluster")
	const coord, replica = "127.0.0.1:19090", "127.0.0.1:19111"
	shards := []string{"127.0.0.1:19101", "127.0.0.1:19102", "127.0.0.1:19103"}
	var shardCmds []*exec.Cmd
	for i, a := range shards {
		proc := fmt.Sprintf("shard%d", i)
		shardCmds = append(shardCmds, p.start(proc, "vdbserver", "-data", p.data(proc), "-addr", a))
	}
	p.start("replica0", "vdbserver", "-replica-of", "http://"+shards[0], "-replica-poll", "100ms", "-addr", replica)
	waitReady(t, append(shards, replica)...)
	p.start("coord", "vdbcoord", append([]string{"-addr", coord, "-probe", "250ms"}, ring(replica, shards...)...)...)
	waitReady(t, coord)
	base := "http://" + coord

	n := len(ingestCorpus(t, base))
	var listed []server.ClipSummary
	getJSON(t, base+"/api/clips", &listed)
	if len(listed) != n {
		t.Fatalf("coordinator lists %d clips, ingested %d", len(listed), n)
	}
	for i, a := range shards {
		var h server.HealthJSON
		getJSON(t, "http://"+a+"/api/health", &h)
		if h.Clips == 0 {
			t.Fatalf("shard %d owns no clips: the ring did not spread the corpus", i)
		}
	}
	waitCaughtUp(t, base, n)

	kill := time.AfterFunc(3*time.Second, func() {
		t.Log("killing shard 2 mid-run")
		_ = shardCmds[2].Process.Signal(syscall.SIGTERM) // an exited process has nothing to stop
	})
	defer kill.Stop()
	res := runLoad(t, base, 8, 8*time.Second, false)
	if h := res.healthy; h.byClass[5] != 0 || h.byClass[0] != 0 {
		t.Errorf("%d 5xx and %d transport errors, want 0: the coordinator must absorb the failure", h.byClass[5], h.byClass[0])
	}
	if res.healthy.partial == 0 {
		t.Error("no partial answers although a shard died mid-run")
	}
	var st cluster.StatusJSON
	getJSON(t, base+"/api/cluster/status", &st)
	down := false
	for _, sh := range st.Shards {
		for _, nd := range sh.Nodes {
			down = down || !nd.Up
		}
	}
	if !down {
		t.Error("coordinator status does not show the killed shard down")
	}
	if st.PartialQueries == 0 {
		t.Error("coordinator status shows no partial queries")
	}
	if st.MaxLagBytes != 0 {
		t.Errorf("replica lag %d bytes after the run, want 0", st.MaxLagBytes)
	}
}

// TestChaosProcesses boots three shards that shed each client above
// 150 req/s, shard 0 delaying 60 % of its query answers by 300 ms but
// owning a healthy replica, behind a coordinator that hedges after
// 50 ms on a 0.2 retry budget. Six paced, keyed workers and an unpaced
// abusive pool drive it for ten seconds. Healthy traffic must see no
// 5xx, no transport error and at most 1 % shed; the abuser must be
// shed but never failed; hedges must win slow answers back within the
// budget; and the shards' admission and chaos counters must move.
func TestChaosProcesses(t *testing.T) {
	p := startProcSet(t, "chaos")
	const coord, replica = "127.0.0.1:19290", "127.0.0.1:19211"
	shards := []string{"127.0.0.1:19201", "127.0.0.1:19202", "127.0.0.1:19203"}
	admit := []string{"-client-rate-limit", "150", "-client-rate-burst", "150"}
	for i, a := range shards {
		proc := fmt.Sprintf("shard%d", i)
		args := append([]string{"-data", p.data(proc), "-addr", a}, admit...)
		if i == 0 {
			args = append(args, "-chaos", "latency:/api/query:0.6:300ms", "-chaos-seed", "1")
		}
		p.start(proc, "vdbserver", args...)
	}
	p.start("replica0", "vdbserver", append([]string{"-replica-of", "http://" + shards[0], "-replica-poll", "100ms", "-addr", replica}, admit...)...)
	waitReady(t, append(shards, replica)...)
	p.start("coord", "vdbcoord", append([]string{"-addr", coord, "-probe", "250ms", "-timeout", "2s",
		"-hedge", "-hedge-delay", "50ms", "-retry-budget", "0.2"}, ring(replica, shards...)...)...)
	waitReady(t, coord)
	base := "http://" + coord

	waitCaughtUp(t, base, len(ingestCorpus(t, base)))

	res := runLoad(t, base, 6, 10*time.Second, true)
	var st cluster.StatusJSON
	getJSON(t, base+"/api/cluster/status", &st)
	h, ab := res.healthy, res.abuse
	if h.byClass[5] != 0 || h.byClass[0] != 0 || ab.byClass[5] != 0 {
		t.Errorf("healthy 5xx %d, transport errors %d, abuser 5xx %d; want 0 (shed, never failed)", h.byClass[5], h.byClass[0], ab.byClass[5])
	}
	shedRate := float64(h.shed) / float64(h.requests)
	if shedRate > 0.01 {
		t.Errorf("healthy shed rate %.4f, want <= 0.01", shedRate)
	}
	if ab.shed == 0 {
		t.Error("the abuser was never shed")
	}
	if st.HedgeWins == 0 {
		t.Error("no hedge won a slow answer back (hedgeWins 0)")
	}
	// Extra attempts never exceed the ratio times primary fetches plus
	// the budget's initial burst.
	if float64(st.Retries+st.Hedges) > 0.2*float64(st.Fetches)+16 {
		t.Errorf("retry budget violated: retries %d + hedges %d > 0.2 × fetches %d + 16", st.Retries, st.Hedges, st.Fetches)
	}
	var shed int64
	for _, a := range shards {
		shed += metric(t, "http://"+a, "videodb_admission_shed_total")
	}
	if shed == 0 {
		t.Error("videodb_admission_shed_total is 0 on every shard")
	}
	injected := metric(t, "http://"+shards[0], "videodb_chaos_injected_latency_total")
	if injected == 0 {
		t.Error("shard 0 injected no chaos latency (videodb_chaos_injected_latency_total 0)")
	}
	t.Logf("healthy shed rate %.4f, abuser shed %d, hedge wins %d, retries %d + hedges %d over %d fetches, shards shed %d, chaos injected %d",
		shedRate, ab.shed, st.HedgeWins, st.Retries, st.Hedges, st.Fetches, shed, injected)
}

// reshardQueries are the fixed queries compared with the control node.
// They match no shot of the clips the 3 → 4 grow moves, so
// TestReshardProcesses adds movedQueries to them.
var reshardQueries = []string{"varba=5&varoa=2", "varba=25&varoa=10", "varba=50&varoa=25", "varba=75&varoa=50", "varba=95&varoa=90"}

// TestReshardProcesses boots three shard primaries (and a spare fourth),
// a replica of shard 0 that may serve reads at 0 bytes of lag, a
// coordinator, and a single-node control holding the same corpus. Four
// seconds into a ten-second load the coordinator grows to four shards.
// The change must be invisible: no 5xx, no transport error and no
// partial answer, the new shard owning clips and taking fan-out,
// replica reads served, and every answer byte-identical to the
// control's, before, during and after the migration.
func TestReshardProcesses(t *testing.T) {
	p := startProcSet(t, "reshard")
	const coord, replica, control = "127.0.0.1:19390", "127.0.0.1:19311", "127.0.0.1:19380"
	shards := []string{"127.0.0.1:19301", "127.0.0.1:19302", "127.0.0.1:19303", "127.0.0.1:19304"}
	for i, a := range shards {
		proc := fmt.Sprintf("shard%d", i)
		p.start(proc, "vdbserver", "-data", p.data(proc), "-addr", a)
	}
	p.start("replica0", "vdbserver", "-replica-of", "http://"+shards[0], "-replica-poll", "100ms", "-addr", replica)
	p.start("control", "vdbserver", "-data", p.data("control"), "-addr", control)
	waitReady(t, append(shards, replica, control)...)
	p.start("coord", "vdbcoord", append([]string{"-addr", coord, "-probe", "250ms", "-staleness-bound", "0"},
		ring(replica, shards[:3]...)...)...)
	waitReady(t, coord)
	base, ctl := "http://"+coord, "http://"+control

	names := ingestCorpus(t, base, ctl)
	waitCaughtUp(t, base, len(names))
	queries := append(slices.Clone(reshardQueries), movedQueries(t, ctl, names)...)

	// Comparers ask the coordinator and the control every query, round
	// after round without pause, until the load and the reshard are
	// over. The corpus does not change, so every answer must be equal.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	rounds := make([]compareRounds, 3)
	for i := range rounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rounds[i] = compareUntil(stop, base, ctl, queries)
		}()
	}
	stopComparers := sync.OnceFunc(func() { close(stop); wg.Wait() })
	t.Cleanup(stopComparers)

	type outcome struct {
		rep cluster.ReshardReport
		err error
	}
	reshard := make(chan outcome, 1)
	go func() {
		time.Sleep(4 * time.Second)
		var oc outcome
		oc.rep, oc.err = postReshard(base, cluster.ReshardRequest{Add: []cluster.ReshardShard{{Primary: "http://" + shards[3]}}})
		reshard <- oc
	}()
	res := runLoad(t, base, 8, 10*time.Second, false)
	var st cluster.StatusJSON
	getJSON(t, base+"/api/cluster/status", &st)
	shardsAtEnd := len(st.Shards)
	oc := <-reshard // the migration may outlast the load
	stopComparers()

	if oc.err != nil {
		t.Fatalf("mid-run reshard failed: %v", oc.err)
	}
	var total compareRounds
	for _, r := range rounds {
		total.rounds += r.rounds
		total.during += r.during
		total.divergent = append(total.divergent, r.divergent...)
	}
	if len(total.divergent) > 0 {
		t.Errorf("%d answers diverged from the control node during the run, first: %v",
			len(total.divergent), total.divergent[:min(5, len(total.divergent))])
	}
	if total.rounds == 0 {
		t.Error("the comparers completed no round")
	}
	t.Logf("answers equal to the control node in %d comparison rounds, %d of them seeing the migration active at their start or end",
		total.rounds, total.during)

	if h := res.healthy; h.byClass[5] != 0 || h.byClass[0] != 0 || h.partial != 0 {
		t.Errorf("%d 5xx, %d transport errors, %d partial answers across the reshard; want 0", h.byClass[5], h.byClass[0], h.partial)
	}
	if oc.rep.MovedClips == 0 {
		t.Error("the reshard moved no clips; the grow must migrate some of the corpus")
	}
	if shardsAtEnd != 4 {
		t.Errorf("coordinator has %d shards after the grow, want 4", shardsAtEnd)
	}
	if res.lagSamples == 0 {
		t.Error("the lag sampler never saw a known replica lag")
	}
	t.Logf("reshard: %d->%d shards, moved %d clips, write barrier %.3fs, dual-read window %.3fs, worst lag %dB",
		oc.rep.FromShards, oc.rep.ToShards, oc.rep.MovedClips, oc.rep.CutoverSeconds, oc.rep.DualReadSeconds, res.maxLag)

	var h3 server.HealthJSON
	getJSON(t, "http://"+shards[3]+"/api/health", &h3)
	if h3.Clips == 0 {
		t.Error("shard 3 owns no clips after the grow")
	}
	for range 20 {
		fetch(t, http.MethodGet, base+"/api/query?varba=25&varoa=10", nil)
	}
	getJSON(t, base+"/api/cluster/status", &st)
	if st.Reshard == nil || st.Reshard.Phase != "done" {
		t.Errorf("coordinator status does not show the reshard done: %+v", st.Reshard)
	}
	replicaReads := int64(0)
	for _, sh := range st.Shards {
		if sh.FanoutCount == 0 {
			t.Errorf("shard %d took no fan-out traffic after the grow", sh.ID)
		}
		replicaReads += sh.ReplicaReads
	}
	if !st.ReplicaReadsEnabled {
		t.Error("status does not advertise replica reads")
	}
	if replicaReads == 0 {
		t.Error("no replica served a bounded-staleness read during the run")
	}

	// Once the migration is over the merged listing and the queries are
	// byte-identical to the never-resharded control's.
	if a, b := fetch(t, http.MethodGet, base+"/api/clips", nil), fetch(t, http.MethodGet, ctl+"/api/clips", nil); !bytes.Equal(a, b) {
		t.Errorf("final merged listing differs from the control node:\n%s\n%s", a, b)
	}
	if d := divergences(base, ctl, queries); len(d) > 0 {
		t.Errorf("after the reshard, answers differ from the control node: %v", d)
	}
}

// postReshard POSTs a membership change and decodes its report; a
// report naming an error is a failure.
func postReshard(base string, req cluster.ReshardRequest) (cluster.ReshardReport, error) {
	var rep cluster.ReshardReport
	body, err := json.Marshal(req)
	if err != nil {
		return rep, err
	}
	if body, err = request(http.MethodPost, base+"/api/cluster/reshard", body); err != nil {
		return rep, err
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, err
	}
	if rep.Error != "" {
		return rep, fmt.Errorf("reshard reported failure: %s", rep.Error)
	}
	return rep, nil
}

// compareRounds is one comparer's count: rounds run, rounds that saw
// the reshard active at their start or end, and what diverged.
type compareRounds struct {
	rounds, during int
	divergent      []string
}

func compareUntil(stop <-chan struct{}, base, ctl string, queries []string) compareRounds {
	var out compareRounds
	active := func() bool {
		var st cluster.StatusJSON
		return tryGetJSON(base+"/api/cluster/status", &st) == nil && st.Reshard != nil && st.Reshard.Active
	}
	for {
		select {
		case <-stop:
			return out
		default:
		}
		during := active()
		for _, d := range divergences(base, ctl, queries) {
			out.divergent = append(out.divergent, fmt.Sprintf("round %d (migrating at start: %v): %s", out.rounds, during, d))
		}
		if active() || during {
			out.during++
		}
		out.rounds++
	}
}

// divergences asks the coordinator and the control node every query
// and answers those whose matches differ or could not be read.
func divergences(base, ctl string, queries []string) []string {
	var out []string
	for _, q := range queries {
		a, errA := queryMatches(base, q, true)
		b, errB := queryMatches(ctl, q, false)
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			out = append(out, fmt.Sprintf("%s (coordinator error %v, control error %v)", q, errA, errB))
		}
	}
	return out
}

// movedQueries answers one query per clip of names that the 3 → 4 grow
// moves, at the point of the clip's first shot as the control node ctl
// holds it, with tolerances tight enough that the control's answer
// holds that shot. A migration that drops a moved clip then changes the
// coordinator's answer to its query.
func movedQueries(t *testing.T, ctl string, names []string) []string {
	t.Helper()
	diff := cluster.NewRing(3, cluster.DefaultVnodes).Diff(cluster.NewRing(4, cluster.DefaultVnodes))
	var queries []string
	for _, name := range names {
		if !diff.Moved(name) {
			continue
		}
		shots := shotTable(t, ctl, name)
		if len(shots) == 0 {
			t.Fatalf("control node lists no shots for %q", name)
		}
		s := shots[0]
		q := fmt.Sprintf("varba=%s&varoa=%s&alpha=0.01&beta=0.01",
			strconv.FormatFloat(s.VarBA, 'g', -1, 64), strconv.FormatFloat(s.VarOA, 'g', -1, 64))
		body, err := queryMatches(ctl, q, false)
		if err != nil {
			t.Fatal(err)
		}
		var matches []server.MatchJSON
		if err := json.Unmarshal(body, &matches); err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(matches, func(m server.MatchJSON) bool { return m.Clip == name && m.Shot == s.Shot }) {
			t.Fatalf("control answer to %s misses shot %d of %q, the point it was taken from", q, s.Shot, name)
		}
		queries = append(queries, q)
	}
	if len(queries) == 0 {
		t.Fatal("the 3 → 4 grow moves none of the ingested clips")
	}
	t.Logf("%d of %d clips move in the grow; one query each is compared with the control node", len(queries), len(names))
	return queries
}
