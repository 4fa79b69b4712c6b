package cluster

import (
	"math"
	"sort"
	"strconv"

	"videodb/internal/server"
	"videodb/internal/varindex"
)

// mergeMatches combines per-shard match lists into the order a single
// node holding the union corpus would return: varindex.Before, the
// comparator the shards' own kernel sorted by. The distance is
// recomputed here from each match's VarBA/VarOA, which survive the JSON
// round trip exactly (float64 in, float64 out), so the merged order is
// bit-equivalent to the single-node order, not merely close.
//
// Duplicates — the same clip#shot arriving from two shards, possible
// mid-reshard or after a misrouted ingest — collapse to one entry.
func mergeMatches(q varindex.Query, parts [][]server.MatchJSON) []server.MatchJSON {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]server.MatchJSON, 0, total)
	seen := make(map[string]struct{}, total)
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

// mergeClipLists combines per-shard clip listings, dropping duplicate
// names and sorting by name so the coordinator's GET /api/clips is
// deterministic regardless of which shard answered first.
func mergeClipLists(parts [][]server.ClipSummary) []server.ClipSummary {
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
