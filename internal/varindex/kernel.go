// The flat query kernel: a struct-of-arrays layout over the index's
// entries scanned branch-free, with all steady-state scratch reusable
// so a query allocates nothing.
//
// Layout. Build() freezes three parallel arrays alongside the sorted
// entries: dvs (float64, the exact Eq. 7 sort key), sqrts (float64, the
// exact Eq. 8 key) and their float32 shadows used by the scan loop
// (sq32, mean32). Eq. 7 needs no scan at all — the entries are sorted
// by D^v, so the α-window is two binary searches on the exact float64
// keys. What remains is the Eq. 8 interval filter over the window,
// which is where the kernel spends its time on wide windows: it runs
// over the compact float32 array (half the cache traffic of float64,
// a quarter of scanning 80-byte Entry structs) with a branch-free
// compaction loop — every iteration stores the candidate index
// unconditionally and advances the output cursor only when the
// comparison mask passes, so the loop carries no data-dependent branch
// for the predictor to miss.
//
// Exactness. The float32 pass is a conservative prefilter, never the
// decision: query bounds are widened outward to the enclosing float32
// values (f32Below/f32Above), so rounding can only admit extra
// candidates, and every candidate is then confirmed against the exact
// float64 keys — the same values SearchLinear computes. The kernel
// therefore returns bit-identically what the float64 linear-scan
// oracle returns, which is what the equivalence/fuzz suite proves.
//
// Allocation. All intermediate state (candidate indices, distances,
// the sorter) lives in a Scratch that callers can reuse; Search falls
// back to a package pool. With a reused Scratch and a caller-owned
// destination slice at capacity, a query performs zero allocations.

package varindex

import (
	"math"
	"sort"
	"sync"
)

// Scratch holds the kernel's reusable intermediate buffers. The zero
// value is ready; buffers grow to the high-water mark of the queries
// they serve and are reused across calls. A Scratch is not safe for
// concurrent use — give each goroutine its own (or pass nil to let the
// kernel borrow one from an internal pool).
type Scratch struct {
	// cand/dist are the surviving candidate entry indices and their
	// squared distances to the query, aligned.
	cand []int32
	dist []float64
	// The sorter lives here so taking its address for sort.Stable does
	// not force a per-call heap escape.
	srt resultSorter
}

// scratchPool backs the nil-Scratch convenience path.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// grow returns buf resized to n, reallocating only past the high-water
// mark.
func grow[T int32 | float64](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// f32Below returns the largest float32 not exceeding x; f32Above the
// smallest not below it. They widen an exact float64 interval bound
// outward so the float32 prefilter can never reject a true match.
func f32Below(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

func f32Above(x float64) float32 {
	f := float32(x)
	if float64(f) < x {
		f = math.Nextafter32(f, float32(math.Inf(1)))
	}
	return f
}

// window returns the half-open [lo, hi) range of entries whose exact
// D^v lies within the closed interval [dq−α, dq+α] (Eq. 7), by binary
// search on the sorted float64 keys.
func (ix *Index) window(dq, alpha float64) (lo, hi int) {
	lo = sort.Search(len(ix.dvs), func(i int) bool { return ix.dvs[i] >= dq-alpha })
	hi = sort.Search(len(ix.dvs), func(i int) bool { return ix.dvs[i] > dq+alpha })
	return lo, hi
}

// scan runs the Eq. 8 (and, under the extended model, Eq. 4) filter
// over the window [lo, hi), leaving the surviving entry indices in
// sc.cand and their squared query distances in sc.dist, ordered by
// ascending entry index. The float32 pass is branch-free; survivors
// are confirmed exactly in float64.
func (ix *Index) scan(q Query, opt Options, dq, sq float64, lo, hi int, sc *Scratch) {
	sc.cand = grow(sc.cand, hi-lo)

	// Branch-free prefilter over the float32 shadow array: store the
	// index unconditionally, bump the cursor on pass. Bounds are widened
	// outward, so this pass has false positives only.
	slo, shi := f32Below(sq-opt.Beta), f32Above(sq+opt.Beta)
	n := 0
	if opt.Gamma > 0 {
		glo := [3]float32{}
		ghi := [3]float32{}
		for ch := 0; ch < 3; ch++ {
			glo[ch] = f32Below(q.MeanBA[ch] - opt.Gamma)
			ghi[ch] = f32Above(q.MeanBA[ch] + opt.Gamma)
		}
		for i := lo; i < hi; i++ {
			sc.cand[n] = int32(i)
			s := ix.sq32[i]
			m := ix.mean32[3*i : 3*i+3 : 3*i+3]
			if s >= slo && s <= shi &&
				m[0] >= glo[0] && m[0] <= ghi[0] &&
				m[1] >= glo[1] && m[1] <= ghi[1] &&
				m[2] >= glo[2] && m[2] <= ghi[2] {
				n++
			}
		}
	} else {
		for i := lo; i < hi; i++ {
			sc.cand[n] = int32(i)
			s := ix.sq32[i]
			if s >= slo && s <= shi {
				n++
			}
		}
	}

	// Exact confirmation in float64 against the same precomputed keys
	// the oracle uses, computing the squared similarity-plane distance
	// for the survivors.
	sc.dist = grow(sc.dist, n)
	kept := 0
	for _, i := range sc.cand[:n] {
		s := ix.sqrts[i]
		if s < sq-opt.Beta || s > sq+opt.Beta {
			continue
		}
		if opt.Gamma > 0 && !opt.meanMatches(q, ix.entries[i]) {
			continue
		}
		dd := ix.dvs[i] - dq
		ds := s - sq
		sc.cand[kept] = i
		sc.dist[kept] = dd*dd + ds*ds
		kept++
	}
	sc.cand, sc.dist = sc.cand[:kept], sc.dist[:kept]
}

// Before is the order of a result list: ascending squared distance to
// the query in the (D^v, sqrt(Var^BA)) plane, ties broken by clip name
// then shot index. It reports whether the result at squared distance da
// named (*clipA, *shotA) comes before the one at db named (*clipB,
// *shotB). The names are passed by address so that they are loaded only
// on a distance tie: sorting a wide answer then reads no entry memory
// for most comparisons (passed by value, the loads cost the kernel a
// tenth of its time at 10k entries). The kernel's sorter orders by this
// function and the cluster coordinator merges the shards' sorted
// answers on it without re-sorting them, which makes a merged answer
// single-node order by construction; the SearchLinear oracle keeps its
// own copy on purpose.
func Before(da, db float64, clipA, clipB *string, shotA, shotB *int) bool {
	if da != db {
		return da < db
	}
	if *clipA != *clipB {
		return *clipA < *clipB
	}
	return *shotA < *shotB
}

// resultSorter orders the kernel's surviving candidates by Before, over
// indices instead of copied entries. Used with sort.Stable so
// fully-equal keys keep their ascending-index scan order, exactly like
// the oracle.
type resultSorter struct {
	idx     []int32
	dist    []float64
	entries []Entry
}

func (s *resultSorter) Len() int { return len(s.idx) }

func (s *resultSorter) Less(a, b int) bool {
	ea, eb := &s.entries[s.idx[a]], &s.entries[s.idx[b]]
	return Before(s.dist[a], s.dist[b], &ea.Clip, &eb.Clip, &ea.Shot, &eb.Shot)
}

func (s *resultSorter) Swap(a, b int) {
	s.idx[a], s.idx[b] = s.idx[b], s.idx[a]
	s.dist[a], s.dist[b] = s.dist[b], s.dist[a]
}

// SearchAppend is the flat kernel and the index's one search: two
// binary searches bound the α-window, the scan filters it, the
// survivors are ordered by Before and appended to dst (which may be
// nil). With a reused *Scratch and a dst at capacity, steady-state
// calls allocate nothing; passing sc == nil borrows a pooled scratch.
func (ix *Index) SearchAppend(dst []Entry, q Query, opt Options, sc *Scratch) ([]Entry, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !ix.built {
		return nil, ErrNotBuilt
	}
	if sc == nil {
		sc = scratchPool.Get().(*Scratch)
		defer scratchPool.Put(sc)
	}
	dq := q.Dv()
	sq := math.Sqrt(q.VarBA)
	lo, hi := ix.window(dq, opt.Alpha)
	ix.scan(q, opt, dq, sq, lo, hi, sc)
	sc.srt = resultSorter{idx: sc.cand, dist: sc.dist, entries: ix.entries}
	sort.Stable(&sc.srt)
	for _, i := range sc.cand {
		dst = append(dst, ix.entries[i])
	}
	return dst, nil
}
