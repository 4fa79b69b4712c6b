package cluster

import (
	"math"
	"slices"
	"strconv"

	"videodb/internal/server"
	"videodb/internal/varindex"
)

// mergeSorted merges lists already ascending under before into one:
// each step emits the least head, ties to the lower part, and drops a
// head equal to the element just emitted. key runs once per element.
// The parts' order is trusted, not checked (docs/CLUSTER.md says why).
func mergeSorted[T, K any](parts [][]T, key func(*T) K, before func(a, b *K) bool) []T {
	type head struct {
		rest []T
		key  K
	}
	heads := make([]head, 0, len(parts))
	total := 0
	for _, p := range parts {
		total += len(p)
		if len(p) > 0 {
			heads = append(heads, head{p, key(&p[0])})
		}
	}
	out := make([]T, 0, total)
	var last K
	for len(heads) > 0 {
		least := 0
		for i := 1; i < len(heads); i++ {
			if before(&heads[i].key, &heads[least].key) {
				least = i
			}
		}
		h := &heads[least]
		if len(out) == 0 || before(&last, &h.key) || before(&h.key, &last) {
			out = append(out, h.rest[0])
			last = h.key
		}
		if h.rest = h.rest[1:]; len(h.rest) > 0 {
			h.key = key(&h.rest[0])
		} else {
			heads = slices.Delete(heads, least, least+1)
		}
	}
	return out
}

// mergeMatches merges per-shard answers into the varindex.Before order
// one node over the union returns, bit for bit: the distance is
// recomputed with the kernel's arithmetic from VarBA/VarOA, which the
// wire keeps exact. Identical copies of a match collapse to the lower
// shard's; copies that differ both show.
func mergeMatches(q varindex.Query, parts [][]server.RawMatch) []server.RawMatch {
	type matchKey struct {
		dist float64
		m    *server.RawMatch
	}
	dq, sq := q.Dv(), math.Sqrt(q.VarBA)
	return mergeSorted(parts, func(m *server.RawMatch) matchKey {
		s := math.Sqrt(m.VarBA)
		dd, ds := (s-math.Sqrt(m.VarOA))-dq, s-sq
		return matchKey{dd*dd + ds*ds, m}
	}, func(a, b *matchKey) bool {
		return varindex.Before(a.dist, b.dist, &a.m.Clip, &b.m.Clip, &a.m.Shot, &b.m.Shot)
	})
}

// relayAnswer splices merged match lists into a scatter-gather answer
// in one presized buffer: head, the lists as comma-separated JSON arrays
// of the bytes their shards sent, tail, and the partial marker.
func relayAnswer(head string, lists [][]server.RawMatch, tail string, partial bool) []byte {
	size := len(head) + len(tail) + len(`,"partial":false}`+"\n")
	for _, ms := range lists {
		size += 3 + len(ms)
		for i := range ms {
			size += len(ms[i].JSON)
		}
	}
	out := append(make([]byte, 0, size), head...)
	for i, ms := range lists {
		if i > 0 {
			out = append(out, ',')
		}
		out = append(out, '[')
		for j := range ms {
			if j > 0 {
				out = append(out, ',')
			}
			out = append(out, ms[j].JSON...)
		}
		out = append(out, ']')
	}
	out = append(append(out, tail...), `,"partial":`...)
	return append(strconv.AppendBool(out, partial), "}\n"...)
}

// mergeListings merges name-ordered shard listings, each name once. An
// empty listing stays nil, the JSON null a node answers with.
func mergeListings(parts [][]server.ClipSummary) []server.ClipSummary {
	out := mergeSorted(parts, func(c *server.ClipSummary) string { return c.Name },
		func(a, b *string) bool { return *a < *b })
	if len(out) == 0 {
		return nil
	}
	return out
}
