package varindex

import (
	"testing"

	"videodb/internal/rng"
)

// The property-based differential suite: for randomized entry sets and
// queries — empty indexes, tiny and extreme (but NaN-free) variances,
// α/β/γ at and around their boundaries — the indexed Search must return
// exactly what the linear-scan baseline returns. These are the
// invariants the lock-free core view relies on: a published index
// answers every query identically to a full scan of its entries.

// varianceScales mixes the magnitudes one entry set can span, from
// exact zero through denormal-adjacent to extreme.
var varianceScales = []float64{0, 1e-12, 1e-3, 1, 25, 1e4, 1e12, 1e18}

// randomVariance draws a non-negative, non-NaN variance.
func randomVariance(r *rng.RNG) float64 {
	base := varianceScales[r.Intn(len(varianceScales))]
	if base == 0 {
		return 0
	}
	return base * r.Float64Range(0.5, 2)
}

func randomEntry(r *rng.RNG, clip string, shot int) Entry {
	e := Entry{
		Clip: clip, Shot: shot,
		Start: shot * 30, End: shot*30 + 29,
		VarBA: randomVariance(r), VarOA: randomVariance(r),
	}
	for ch := range e.MeanBA {
		e.MeanBA[ch] = r.Float64Range(-2, 2)
	}
	return e
}

// randomOptions draws tolerances including the boundary cases: zero α,
// zero β, γ off and on.
func randomOptions(r *rng.RNG) Options {
	opt := Options{Alpha: r.Float64Range(0, 4), Beta: r.Float64Range(0, 4)}
	switch r.Intn(4) {
	case 0:
		opt.Alpha = 0
	case 1:
		opt.Beta = 0
	}
	if r.Bool(0.3) {
		opt.Gamma = r.Float64Range(0, 1.5)
	}
	return opt
}

// randomQuery draws either a perturbation of an existing entry (so the
// result set is non-trivial) or a fresh random point.
func randomQuery(r *rng.RNG, entries []Entry) Query {
	if len(entries) > 0 && r.Bool(0.7) {
		base := entries[r.Intn(len(entries))]
		q := Query{
			VarBA: base.VarBA * r.Float64Range(0.8, 1.25),
			VarOA: base.VarOA * r.Float64Range(0.8, 1.25),
		}
		for ch := range q.MeanBA {
			q.MeanBA[ch] = base.MeanBA[ch] + r.Float64Range(-0.5, 0.5)
		}
		return q
	}
	q := Query{VarBA: randomVariance(r), VarOA: randomVariance(r)}
	for ch := range q.MeanBA {
		q.MeanBA[ch] = r.Float64Range(-2, 2)
	}
	return q
}

// sameResults asserts two result slices are identical, order included
// (both paths sort by distance with the same deterministic tie-break).
func sameResults(t *testing.T, label string, a, b []Entry) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result sizes differ: %d vs %d\n%v\n%v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: result %d differs: %+v vs %+v", label, i, a[i], b[i])
		}
	}
}

// checkSearchEquivalence runs the two differential properties on one
// built index and query. Shared by the property test and the fuzz
// target.
func checkSearchEquivalence(t *testing.T, ix *Index, q Query, opt Options) {
	t.Helper()
	indexed, err := ix.Search(q, opt)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	linear, err := ix.SearchLinear(q, opt)
	if err != nil {
		t.Fatalf("SearchLinear: %v", err)
	}
	sameResults(t, "Search vs SearchLinear", indexed, linear)

	// Search borrows a pooled scratch; hold the caller-owned-scratch form
	// to the same oracle.
	var sc Scratch
	app, err := ix.SearchAppend(nil, q, opt, &sc)
	if err != nil {
		t.Fatalf("SearchAppend: %v", err)
	}
	sameResults(t, "SearchAppend vs SearchLinear", app, linear)
}

// TestSearchEquivalenceProperty is the randomized differential proof:
// hundreds of random indexes, thousands of random queries, two
// invariants each.
func TestSearchEquivalenceProperty(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 150; trial++ {
		n := r.Intn(48) // 0 = empty index
		ix := New()
		entries := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			clip := string(rune('a' + r.Intn(5)))
			e := randomEntry(r, clip, i)
			entries = append(entries, e)
			ix.Add(e)
		}
		ix.Build()
		for qi := 0; qi < 20; qi++ {
			checkSearchEquivalence(t, ix, randomQuery(r, entries), randomOptions(r))
		}
	}
}

// TestSearchEquivalenceBoundaries pins the exact boundary semantics:
// an entry exactly α away in D^v (or β in sqrt space) is included by
// both paths — Eqs. 7–8 are closed intervals.
func TestSearchEquivalenceBoundaries(t *testing.T) {
	ix := New()
	// Dv = sqrt(VarBA); entries at Dv 0, 1, 2, 3 with VarOA = 0.
	for i, varBA := range []float64{0, 1, 4, 9} {
		ix.Add(Entry{Clip: "b", Shot: i, VarBA: varBA})
	}
	ix.Build()
	q := Query{VarBA: 4} // Dv = 2, sqrtBA = 2
	opt := Options{Alpha: 1, Beta: 1}
	got, err := ix.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := ix.SearchLinear(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "boundary", got, lin)
	if len(got) != 3 { // Dv 1, 2, 3 are all within the closed ±1
		t.Fatalf("closed-interval boundary returned %d entries, want 3: %v", len(got), got)
	}
}
