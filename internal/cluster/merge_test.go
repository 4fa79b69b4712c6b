package cluster

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sort"
	"strconv"
	"testing"

	"videodb/internal/core"
	"videodb/internal/rng"
	"videodb/internal/server"
	"videodb/internal/varindex"
)

// referenceMergeMatches is the coordinator's merge as it was before the
// k-way merge: concatenate, dedupe by clip#shot (first part wins),
// re-sort the union on varindex.Before. The property below holds the
// k-way merge to it.
func referenceMergeMatches(q varindex.Query, parts [][]server.MatchJSON) []server.MatchJSON {
	var out []server.MatchJSON
	seen := make(map[string]struct{})
	for _, p := range parts {
		for _, m := range p {
			k := m.Clip + "#" + strconv.Itoa(m.Shot)
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = struct{}{}
			out = append(out, m)
		}
	}
	dq, sq := q.Dv(), math.Sqrt(q.VarBA)
	dists := make([]float64, len(out))
	for i, m := range out {
		dd := (math.Sqrt(m.VarBA) - math.Sqrt(m.VarOA)) - dq
		ds := math.Sqrt(m.VarBA) - sq
		dists[i] = dd*dd + ds*ds
	}
	order := make([]int, len(out))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		return varindex.Before(dists[i], dists[j], &out[i].Clip, &out[j].Clip, &out[i].Shot, &out[j].Shot)
	})
	sorted := make([]server.MatchJSON, len(out))
	for a, i := range order {
		sorted[a] = out[i]
	}
	return sorted
}

// referenceMergeListings is the old listing merge: dedupe by name
// (first part wins), then sort by name.
func referenceMergeListings(parts [][]server.ClipSummary) []server.ClipSummary {
	var out []server.ClipSummary
	seen := make(map[string]struct{})
	for _, p := range parts {
		for _, c := range p {
			if _, dup := seen[c.Name]; dup {
				continue
			}
			seen[c.Name] = struct{}{}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// nodeBody is the body a node's query handler answers an index answer
// with.
func nodeBody(es []varindex.Entry) []byte {
	ms := make([]core.Match, len(es))
	for i, e := range es {
		ms[i].Entry = e
	}
	return append(server.AppendMatches(nil, ms), '\n')
}

// decodeMatches decodes a match array with encoding/json.
func decodeMatches(t testing.TB, body []byte) []server.MatchJSON {
	t.Helper()
	var out []server.MatchJSON
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	return out
}

// scanMatches reads a node body the way the coordinator does.
func scanMatches(t testing.TB, body []byte) []server.RawMatch {
	t.Helper()
	ms, err := server.ScanMatches(body)
	if err != nil {
		t.Fatal(err)
	}
	return ms
}

// mergeLayout is one cluster drawn from a byte string: 1–4 shards, clips
// of integer variances (so distance ties are common), each clip on its
// owner and some also copied identically onto a second shard, plus one
// query. Reading past the end yields zeros, so every input is a layout.
type mergeLayout struct {
	shards [][]varindex.Entry
	union  []varindex.Entry
	q      varindex.Query
	opt    varindex.Options
}

func layoutFromBytes(data []byte) mergeLayout {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tolerances := []float64{0.5, 1, 2, 1e6}
	k := 1 + next()%4
	l := mergeLayout{
		shards: make([][]varindex.Entry, k),
		q:      varindex.Query{VarBA: float64(next() % 16), VarOA: float64(next() % 16)},
		opt:    varindex.Options{Alpha: tolerances[next()%4], Beta: tolerances[next()%4]},
	}
	named := make(map[string]bool)
	for len(data) >= 3 && len(named) < 24 {
		name := fmt.Sprintf("c%02d", next()%32)
		shots, owner, copyTo := 1+next()%6, next()%k, next()
		var clip []varindex.Entry
		for s := 0; s < shots; s++ {
			clip = append(clip, varindex.Entry{
				Clip: name, Shot: s, Start: 30 * s, End: 30*s + 29,
				VarBA: float64(next() % 8), VarOA: float64(next() % 8),
			})
		}
		if named[name] {
			continue
		}
		named[name] = true
		l.union = append(l.union, clip...)
		l.shards[owner] = append(l.shards[owner], clip...)
		if k > 1 && copyTo%5 == 0 {
			second := (owner + 1 + copyTo/5%(k-1)) % k
			l.shards[second] = append(l.shards[second], clip...)
		}
	}
	return l
}

// answer builds an index over entries and returns the node body of its
// answer to q, and its clip listing.
func answer(t *testing.T, entries []varindex.Entry, q varindex.Query, opt varindex.Options) ([]byte, []server.ClipSummary) {
	t.Helper()
	ix := varindex.New()
	shots := make(map[string]int)
	for _, e := range entries {
		ix.Add(e)
		shots[e.Clip]++
	}
	ix.Build()
	found, err := ix.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	listing := make([]server.ClipSummary, 0, len(shots))
	for name, n := range shots {
		listing = append(listing, server.ClipSummary{Name: name, Shots: n})
	}
	sort.Slice(listing, func(i, j int) bool { return listing[i].Name < listing[j].Name })
	return nodeBody(found), listing
}

// checkMergeEquivalence holds the k-way merge of the layout's shard
// answers to the old sort-based merge and to one node over the union,
// for matches and for listings.
func checkMergeEquivalence(t *testing.T, data []byte) {
	t.Helper()
	l := layoutFromBytes(data)
	matchParts := make([][]server.MatchJSON, len(l.shards))
	rawParts := make([][]server.RawMatch, len(l.shards))
	listParts := make([][]server.ClipSummary, len(l.shards))
	for i, entries := range l.shards {
		var body []byte
		body, listParts[i] = answer(t, entries, l.q, l.opt)
		matchParts[i], rawParts[i] = decodeMatches(t, body), scanMatches(t, body)
	}
	singleBody, singleListing := answer(t, l.union, l.q, l.opt)
	single := decodeMatches(t, singleBody)

	var relayed server.QueryResponseJSON
	if err := json.Unmarshal(relayAnswer(`{"matches":`, [][]server.RawMatch{mergeMatches(l.q, rawParts)}, "", false), &relayed); err != nil {
		t.Fatal(err)
	}
	got := relayed.Matches
	if ref := referenceMergeMatches(l.q, matchParts); !reflect.DeepEqual(got, ref) {
		t.Fatalf("merge differs from the sort-based merge\n got: %+v\nwant: %+v", got, ref)
	}
	if !reflect.DeepEqual(got, single) {
		t.Fatalf("merge differs from one node over the union\n got: %+v\nwant: %+v", got, single)
	}
	// The reference pins an empty listing to nil (a node's JSON null);
	// the single node's listing is compared when it is not empty.
	gotListing := mergeListings(listParts)
	if ref := referenceMergeListings(listParts); !reflect.DeepEqual(gotListing, ref) {
		t.Fatalf("listing differs from the sort-based merge\n got: %+v\nwant: %+v", gotListing, ref)
	}
	if len(singleListing) > 0 && !reflect.DeepEqual(gotListing, singleListing) {
		t.Fatalf("listing differs from one node over the union\n got: %+v\nwant: %+v", gotListing, singleListing)
	}
}

// TestMergeEquivalenceProperty runs the merge equivalence over seeded
// random layouts.
func TestMergeEquivalenceProperty(t *testing.T) {
	r := rng.New(26)
	for trial := 0; trial < 300; trial++ {
		data := make([]byte, r.Intn(400))
		for i := range data {
			data[i] = byte(r.Intn(256))
		}
		checkMergeEquivalence(t, data)
	}
}

// FuzzMergeEquivalence drives the same equivalence with fuzzer-chosen
// layouts.
func FuzzMergeEquivalence(f *testing.F) {
	f.Add([]byte{})
	// Three shards, match-all tolerances, two clips of two shots with
	// equal variances (every distance ties); the second clip, owned by
	// shard 1, is copied onto shard 2.
	f.Add([]byte{2, 4, 4, 3, 3, 1, 1, 0, 1, 3, 3, 3, 3, 2, 1, 1, 0, 3, 3, 3, 3})
	seed := make([]byte, 0, 256)
	for i := uint64(0); len(seed) < 256; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, i*0x9e3779b97f4a7c15)
	}
	f.Add(seed)
	f.Fuzz(checkMergeEquivalence)
}
