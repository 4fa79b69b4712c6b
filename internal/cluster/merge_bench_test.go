package cluster

import (
	"fmt"
	"testing"

	"videodb/internal/rng"
	"videodb/internal/server"
	"videodb/internal/varindex"
)

// BenchmarkMergeMatches merges three shard answers of 3,400 matches in
// total, the size of one wide cluster query: each part is its shard's
// own index answer, converted the way the node serves it.
func BenchmarkMergeMatches(b *testing.B) {
	const shards, total = 3, 3400
	r := rng.New(1)
	ixs := make([]*varindex.Index, shards)
	for i := range ixs {
		ixs[i] = varindex.New()
	}
	for n := 0; n < total; n++ {
		ixs[n%shards].Add(varindex.Entry{
			Clip: fmt.Sprintf("clip-%04d", n/8), Shot: n % 8,
			VarBA: r.Float64Range(0, 400), VarOA: r.Float64Range(0, 400),
		})
	}
	q := varindex.Query{VarBA: 100, VarOA: 100}
	opt := varindex.Options{Alpha: 100, Beta: 100}
	parts := make([][]server.MatchJSON, shards)
	for i, ix := range ixs {
		ix.Build()
		found, err := ix.Search(q, opt)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range found {
			parts[i] = append(parts[i], server.MatchJSON{
				Clip: e.Clip, Shot: e.Shot, Start: e.Start, End: e.End,
				VarBA: e.VarBA, VarOA: e.VarOA, Dv: e.Dv(),
			})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := mergeMatches(q, parts); len(got) != total {
			b.Fatalf("merged %d matches, want %d", len(got), total)
		}
	}
}
