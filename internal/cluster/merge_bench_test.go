package cluster

import (
	"fmt"
	"testing"

	"videodb/internal/core"
	"videodb/internal/rng"
	"videodb/internal/scenetree"
	"videodb/internal/server"
	"videodb/internal/varindex"
)

// benchMatches is the size of one wide cluster query.
const benchMatches = 3400

// shardBodies returns a query and three shard answers to it of
// benchMatches matches in total, as the bodies the nodes send: each is
// its shard's own index answer, every match with a scene.
func shardBodies(b *testing.B) (varindex.Query, [][]byte) {
	const shards = 3
	r := rng.New(1)
	ixs := make([]*varindex.Index, shards)
	for i := range ixs {
		ixs[i] = varindex.New()
	}
	for n := 0; n < benchMatches; n++ {
		ixs[n%shards].Add(varindex.Entry{
			Clip: fmt.Sprintf("clip-%04d", n/8), Shot: n % 8, Start: 30 * (n % 8), End: 30*(n%8) + 29,
			VarBA: r.Float64Range(0, 400), VarOA: r.Float64Range(0, 400),
		})
	}
	q := varindex.Query{VarBA: 100, VarOA: 100}
	opt := varindex.Options{Alpha: 100, Beta: 100}
	bodies := make([][]byte, shards)
	for i, ix := range ixs {
		ix.Build()
		found, err := ix.Search(q, opt)
		if err != nil {
			b.Fatal(err)
		}
		ms := make([]core.Match, len(found))
		for j, e := range found {
			ms[j] = core.Match{Entry: e, Scene: &scenetree.Node{Shot: e.Shot, Level: 1}}
		}
		bodies[i] = append(server.AppendMatches(nil, ms), '\n')
	}
	return q, bodies
}

// BenchmarkMergeMatches merges the three shard answers of shardBodies,
// read the way the coordinator reads them.
func BenchmarkMergeMatches(b *testing.B) {
	q, bodies := shardBodies(b)
	parts := make([][]server.RawMatch, len(bodies))
	for i, body := range bodies {
		parts[i] = scanMatches(b, body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mergeMatches(q, parts); len(got) != benchMatches {
			b.Fatalf("merged %d matches, want %d", len(got), benchMatches)
		}
	}
}

// gathered keeps BenchmarkGather's answer live.
var gathered []byte

// BenchmarkGather is the coordinator's whole gather of one wide query
// once the shards have answered: scan the three bodies, merge, and
// splice the answer.
func BenchmarkGather(b *testing.B) {
	q, bodies := shardBodies(b)
	parts := make([][]server.RawMatch, len(bodies))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, body := range bodies {
			parts[j] = scanMatches(b, body)
		}
		merged := mergeMatches(q, parts)
		if len(merged) != benchMatches {
			b.Fatalf("gathered %d matches, want %d", len(merged), benchMatches)
		}
		gathered = relayAnswer(`{"matches":`, [][]server.RawMatch{merged}, "", false)
	}
}
