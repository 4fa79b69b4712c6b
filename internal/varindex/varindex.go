// Package varindex implements the paper's cost-effective indexing
// mechanism (SIGMOD 2000, §4): an index table over the two-value feature
// vector (Var^BA, Var^OA) of every shot, queried through the
// variance-based similarity model
//
//	D^v = sqrt(Var^BA) − sqrt(Var^OA)
//
// A query (Var_q^BA, Var_q^OA) returns every shot i satisfying
//
//	D_q^v − α ≤ D_i^v ≤ D_q^v + α                      (Eq. 7)
//	sqrt(Var_q^BA) − β ≤ sqrt(Var_i^BA) ≤ sqrt(Var_q^BA) + β   (Eq. 8)
//
// with α = β = 1.0 in the paper's system. The index keeps entries sorted
// by D^v so Eq. 7 is a binary-search range scan; Eq. 8 filters the
// survivors.
package varindex

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// DefaultAlpha and DefaultBeta are the paper's query tolerances.
const (
	DefaultAlpha = 1.0
	DefaultBeta  = 1.0
)

// ErrNotBuilt reports a read against an index that has pending Adds:
// reads never build implicitly (an implicit build would mutate shared
// state from what the lock-free query path promises is an immutable
// reader), so the owner must call Build before publishing the index.
// Match it with errors.Is.
var ErrNotBuilt = errors.New("varindex: index not built (call Build before reading)")

// ErrBadTolerance reports a NaN, infinite or negative query tolerance;
// match it with errors.Is.
var ErrBadTolerance = errors.New("varindex: invalid tolerance")

// ErrBadQuery reports a query with NaN, infinite or negative variance
// coordinates (or a non-finite mean); match it with errors.Is.
var ErrBadQuery = errors.New("varindex: invalid query")

// Entry is one row of the index table (Table 4): a shot of some clip
// with its variance feature vector.
type Entry struct {
	// Clip names the video clip the shot belongs to.
	Clip string
	// Shot is the 0-based shot index within the clip.
	Shot int
	// Start and End are the shot's frame range (inclusive).
	Start, End int
	// VarBA and VarOA are the background and object-area sign variances.
	VarBA, VarOA float64
	// MeanBA is the per-channel mean background sign (Eq. 4), used only
	// by the extended similarity model (Options.Gamma > 0).
	MeanBA [3]float64
}

// Dv returns the entry's similarity coordinate sqrt(VarBA) − sqrt(VarOA).
func (e Entry) Dv() float64 { return math.Sqrt(e.VarBA) - math.Sqrt(e.VarOA) }

// SqrtBA returns sqrt(VarBA), Eq. 8's coordinate.
func (e Entry) SqrtBA() float64 { return math.Sqrt(e.VarBA) }

// Key identifies an entry uniquely.
func (e Entry) Key() string { return fmt.Sprintf("%s#%d", e.Clip, e.Shot) }

// Query is the user's impression of how much things change in the
// background and object areas (§4.2). MeanBA participates only under
// the extended model (Options.Gamma > 0).
type Query struct {
	VarBA, VarOA float64
	MeanBA       [3]float64
}

// Dv returns the query's similarity coordinate.
func (q Query) Dv() float64 { return math.Sqrt(q.VarBA) - math.Sqrt(q.VarOA) }

// Validate rejects queries whose coordinates would poison the
// similarity model: NaN or infinite values (a NaN D^v silently matches
// nothing in the indexed scan and everything in a linear scan) and
// negative variances (whose square roots are NaN).
func (q Query) Validate() error {
	if math.IsNaN(q.VarBA) || math.IsInf(q.VarBA, 0) || q.VarBA < 0 ||
		math.IsNaN(q.VarOA) || math.IsInf(q.VarOA, 0) || q.VarOA < 0 {
		return fmt.Errorf("%w: VarBA=%v VarOA=%v", ErrBadQuery, q.VarBA, q.VarOA)
	}
	for ch, m := range q.MeanBA {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return fmt.Errorf("%w: MeanBA[%d]=%v", ErrBadQuery, ch, m)
		}
	}
	return nil
}

// Options controls a search.
type Options struct {
	// Alpha is Eq. 7's tolerance on D^v.
	Alpha float64
	// Beta is Eq. 8's tolerance on sqrt(VarBA).
	Beta float64
	// Gamma, when positive, enables the extended similarity model the
	// paper's §6 leaves as future work ("to make the comparison more
	// discriminating"): a matching shot's mean background sign must
	// additionally lie within Gamma of the query's on every channel,
	// so matches share not just a degree of change but a dominant
	// background colour. Zero (the default) is the paper's model.
	Gamma float64
}

// DefaultOptions returns the paper's α = β = 1.0.
func DefaultOptions() Options {
	return Options{Alpha: DefaultAlpha, Beta: DefaultBeta}
}

// Validate reports invalid tolerances: negative, NaN or infinite
// values are all rejected (a NaN Alpha slips past a simple sign check
// and yields window bounds that silently match nothing; an infinite
// one degenerates every query to a full scan).
func (o Options) Validate() error {
	for _, t := range [...]float64{o.Alpha, o.Beta, o.Gamma} {
		if math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
			return fmt.Errorf("%w: α=%v β=%v γ=%v", ErrBadTolerance, o.Alpha, o.Beta, o.Gamma)
		}
	}
	return nil
}

// meanMatches applies the extended model's filter; with Gamma == 0 it
// always matches.
func (o Options) meanMatches(q Query, e Entry) bool {
	if o.Gamma == 0 {
		return true
	}
	for ch := 0; ch < 3; ch++ {
		d := e.MeanBA[ch] - q.MeanBA[ch]
		if d < 0 {
			d = -d
		}
		if d > o.Gamma {
			return false
		}
	}
	return true
}

// Index is the sorted index table. The zero value is ready to use.
// Construction is two-phase: Add entries, then Build. After Build the
// index is immutable — reads never mutate it, so a built index may be
// shared freely across goroutines without locks; reads on an unbuilt
// index fail with ErrNotBuilt instead of building implicitly, which
// would be a write. Mutation is by copy: Replace merges a clip's new
// entries into a new index, leaving the receiver untouched.
type Index struct {
	entries []Entry
	dvs     []float64 // exact Dv per entry, aligned with entries
	sqrts   []float64 // exact sqrt(VarBA) per entry
	// Float32 shadows of the scan keys, the flat SoA arrays the query
	// kernel's prefilter reads (see kernel.go). mean32 is 3 channels
	// per entry, flattened.
	sq32   []float32
	mean32 []float32
	built  bool
}

// New returns an empty index.
func New() *Index { return &Index{built: true} }

// Add inserts an entry. Adding unbuilds the index; call Build before
// sharing it across goroutines.
func (ix *Index) Add(e Entry) {
	ix.entries = append(ix.entries, e)
	ix.built = false
}

// Len returns the number of indexed shots.
func (ix *Index) Len() int { return len(ix.entries) }

// Build sorts the entries by D^v and precomputes the search keys — the
// exact float64 D^v and sqrt(VarBA) per entry plus the float32 SoA
// shadows the query kernel scans — finishing construction. It is
// idempotent and cheap on an already-built index. Build must run
// before the index is read or shared: reads fail with ErrNotBuilt on
// an unbuilt index. It is the package's one sort: Replace uses it too.
func (ix *Index) Build() {
	if ix.built {
		return
	}
	sort.SliceStable(ix.entries, func(i, j int) bool {
		return ix.entries[i].Dv() < ix.entries[j].Dv()
	})
	sorted := ix.entries
	*ix = *withCap(len(sorted))
	for _, e := range sorted {
		ix.push(e, e.Dv(), e.SqrtBA())
	}
}

// withCap returns an empty built index with room for exactly n entries.
func withCap(n int) *Index {
	return &Index{entries: make([]Entry, 0, n), dvs: make([]float64, 0, n),
		sqrts: make([]float64, 0, n), sq32: make([]float32, 0, n),
		mean32: make([]float32, 0, 3*n), built: true}
}

// push appends e with its exact keys dv and sqrtBA and their float32
// shadows.
func (ix *Index) push(e Entry, dv, sqrtBA float64) {
	ix.entries = append(ix.entries, e)
	ix.dvs = append(ix.dvs, dv)
	ix.sqrts = append(ix.sqrts, sqrtBA)
	ix.sq32 = append(ix.sq32, float32(sqrtBA))
	ix.mean32 = append(ix.mean32, float32(e.MeanBA[0]), float32(e.MeanBA[1]), float32(e.MeanBA[2]))
}

// mustBuilt panics on an unbuilt index — the invariant guard for
// accessors that cannot return an error.
func (ix *Index) mustBuilt(method string) {
	if !ix.built {
		panic("varindex: " + method + " on an unbuilt index (publish invariant violated: call Build first)")
	}
}

// Replace returns a new built index holding the receiver's entries
// except clip's, plus entries: an insert, a re-ingest, or (with nil
// entries) a delete. The receiver must be built and is left unchanged.
// Only entries is sorted and keyed (by Build); one pass then merges it
// into the receiver's run, survivors keeping their cached keys and
// coming first on a D^v tie — the order Build gives when entries are
// Added after the receiver's, so the result is bit-identical to a
// rebuild. It is sized exactly and shares no memory with its inputs.
func (ix *Index) Replace(clip string, entries []Entry) *Index {
	ix.mustBuilt("Replace")
	add := &Index{entries: append([]Entry(nil), entries...)}
	add.Build()
	n := len(entries)
	for i := range ix.entries {
		if ix.entries[i].Clip != clip {
			n++
		}
	}
	out := withCap(n)
	for i, j := 0, 0; i < len(ix.entries) || j < len(add.entries); {
		if i < len(ix.entries) && (j == len(add.entries) || !(add.dvs[j] < ix.dvs[i])) {
			if ix.entries[i].Clip != clip {
				out.push(ix.entries[i], ix.dvs[i], ix.sqrts[i])
			}
			i++
		} else {
			out.push(add.entries[j], add.dvs[j], add.sqrts[j])
			j++
		}
	}
	return out
}

// Entries returns the entries sorted by D^v. The index must be built —
// Entries panics otherwise, because it cannot report an error and
// building here would mutate a shared reader. The returned slice is
// the index's backing store; callers must not modify it.
func (ix *Index) Entries() []Entry {
	ix.mustBuilt("Entries")
	return ix.entries
}

// Search returns all entries satisfying Eqs. 7 and 8 for the query,
// ordered by ascending distance to it in the (D^v, sqrt(VarBA)) plane
// (Before): SearchAppend into a fresh slice with a pooled scratch. The
// index must be built (ErrNotBuilt otherwise).
func (ix *Index) Search(q Query, opt Options) ([]Entry, error) {
	return ix.SearchAppend(nil, q, opt, nil)
}

// SearchLinear is Search without the index: a full scan in exact
// float64 arithmetic, recomputing every key. It is the oracle the
// equivalence/fuzz suite holds the flat kernel to (Search must return
// bit-identical results) and the baseline for the index-vs-scan
// ablation. Like every read, it requires a built index.
func (ix *Index) SearchLinear(q Query, opt Options) ([]Entry, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if !ix.built {
		return nil, ErrNotBuilt
	}
	dq := q.Dv()
	sq := math.Sqrt(q.VarBA)
	var out []Entry
	for _, e := range ix.entries {
		dv := e.Dv()
		if dv < dq-opt.Alpha || dv > dq+opt.Alpha {
			continue
		}
		if s := e.SqrtBA(); s < sq-opt.Beta || s > sq+opt.Beta {
			continue
		}
		if !opt.meanMatches(q, e) {
			continue
		}
		out = append(out, e)
	}
	sortByDistance(out, dq, sq)
	return out, nil
}

// TopK returns the k entries nearest the query in the (D^v, sqrt(VarBA))
// plane among those satisfying Eqs. 7–8, the form the retrieval figures
// (8–10) present: Search's answer cut at k. Fewer than k may be
// returned.
func (ix *Index) TopK(q Query, opt Options, k int) ([]Entry, error) {
	all, err := ix.Search(q, opt)
	if err != nil {
		return nil, err
	}
	if len(all) > k {
		all = all[:k]
	}
	return all, nil
}

// TopKExcluding is TopK with the query shot itself removed — retrieval
// experiments query by an existing shot and want its neighbours. It
// filters Search's answer in place, so k bounds the result without ever
// sizing anything: a k beyond the neighbour count returns them all.
func (ix *Index) TopKExcluding(q Query, opt Options, k int, clip string, shot int) ([]Entry, error) {
	all, err := ix.Search(q, opt)
	if err != nil {
		return nil, err
	}
	out := all[:0]
	for _, e := range all {
		if len(out) >= k {
			break
		}
		if e.Shot != shot || e.Clip != clip {
			out = append(out, e)
		}
	}
	return out, nil
}

// sortByDistance orders entries by Euclidean distance to (dq, sq) in the
// similarity plane, breaking ties by clip name then shot index for
// determinism. Distances are computed once up front: the comparator
// must not recompute square roots O(n log n) times.
func sortByDistance(entries []Entry, dq, sq float64) {
	dists := make([]float64, len(entries))
	for i, e := range entries {
		dd := e.Dv() - dq
		ds := e.SqrtBA() - sq
		dists[i] = dd*dd + ds*ds
	}
	order := make([]int, len(entries))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		i, j := order[a], order[b]
		if dists[i] != dists[j] {
			return dists[i] < dists[j]
		}
		if entries[i].Clip != entries[j].Clip {
			return entries[i].Clip < entries[j].Clip
		}
		return entries[i].Shot < entries[j].Shot
	})
	sorted := make([]Entry, len(entries))
	for a, i := range order {
		sorted[a] = entries[i]
	}
	copy(entries, sorted)
}
