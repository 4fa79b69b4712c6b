package varindex

import (
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"videodb/internal/rng"
)

// --- validation ---

func TestOptionsValidateRejectsBadTolerances(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		opt  Options
		ok   bool
	}{
		{"defaults", DefaultOptions(), true},
		{"zero everything", Options{}, true},
		{"nan alpha", Options{Alpha: nan, Beta: 1}, false},
		{"nan beta", Options{Alpha: 1, Beta: nan}, false},
		{"nan gamma", Options{Alpha: 1, Beta: 1, Gamma: nan}, false},
		{"inf alpha", Options{Alpha: inf, Beta: 1}, false},
		{"neg inf beta", Options{Alpha: 1, Beta: math.Inf(-1)}, false},
		{"negative alpha", Options{Alpha: -0.5, Beta: 1}, false},
		{"negative beta", Options{Alpha: 1, Beta: -1e-9}, false},
		{"negative gamma", Options{Alpha: 1, Beta: 1, Gamma: -2}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opt.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadTolerance) {
				t.Fatalf("Validate() = %v, want ErrBadTolerance", err)
			}
		})
	}
}

func TestQueryValidateRejectsBadCoordinates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		q    Query
		ok   bool
	}{
		{"plain", Query{VarBA: 25, VarOA: 4}, true},
		{"zero", Query{}, true},
		{"nan VarBA", Query{VarBA: nan, VarOA: 4}, false},
		{"nan VarOA", Query{VarBA: 25, VarOA: nan}, false},
		{"inf VarBA", Query{VarBA: inf}, false},
		{"negative VarOA", Query{VarBA: 25, VarOA: -1}, false},
		{"nan mean", Query{VarBA: 1, VarOA: 1, MeanBA: [3]float64{0, nan, 0}}, false},
		{"inf mean", Query{VarBA: 1, VarOA: 1, MeanBA: [3]float64{inf, 0, 0}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.q.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && !errors.Is(err, ErrBadQuery) {
				t.Fatalf("Validate() = %v, want ErrBadQuery", err)
			}
		})
	}
}

// TestBadInputsRejectedByEveryEntryPoint: the scalar, append,
// linear and quantized paths all agree on rejecting NaN tolerances and
// NaN queries — no path may silently return a divergent result set.
func TestBadInputsRejectedByEveryEntryPoint(t *testing.T) {
	ix := New()
	ix.Add(entry("a", 0, 25, 4))
	ix.Build()
	q, opt := Query{VarBA: 25, VarOA: 4}, DefaultOptions()
	badOpt := opt
	badOpt.Alpha = math.NaN()
	badQ := Query{VarBA: math.NaN()}

	for name, err := range map[string]error{
		"Search bad opt":       func() error { _, e := ix.Search(q, badOpt); return e }(),
		"SearchAppend bad opt": func() error { _, e := ix.SearchAppend(nil, q, badOpt, nil); return e }(),
		"SearchLinear bad opt": func() error { _, e := ix.SearchLinear(q, badOpt); return e }(),
	} {
		if !errors.Is(err, ErrBadTolerance) {
			t.Errorf("%s: err = %v, want ErrBadTolerance", name, err)
		}
	}
	for name, err := range map[string]error{
		"Search bad query":       func() error { _, e := ix.Search(badQ, opt); return e }(),
		"SearchAppend bad query": func() error { _, e := ix.SearchAppend(nil, badQ, opt, nil); return e }(),
		"SearchLinear bad query": func() error { _, e := ix.SearchLinear(badQ, opt); return e }(),
	} {
		if !errors.Is(err, ErrBadQuery) {
			t.Errorf("%s: err = %v, want ErrBadQuery", name, err)
		}
	}
}

// --- build-at-publish ---

// TestUnbuiltReadsFail: every read entry point on an index with pending
// Adds reports ErrNotBuilt (or panics, for the two that cannot return
// an error) instead of building implicitly. Lazy building mutated
// shared state from what the lock-free core view treats as an immutable
// reader.
func TestUnbuiltReadsFail(t *testing.T) {
	ix := New()
	ix.Add(entry("a", 0, 25, 4))
	q, opt := Query{VarBA: 25, VarOA: 4}, DefaultOptions()

	for name, err := range map[string]error{
		"Search":       func() error { _, e := ix.Search(q, opt); return e }(),
		"SearchAppend": func() error { _, e := ix.SearchAppend(nil, q, opt, nil); return e }(),
		"SearchLinear": func() error { _, e := ix.SearchLinear(q, opt); return e }(),
		"TopK":         func() error { _, e := ix.TopK(q, opt, 1); return e }(),
	} {
		if !errors.Is(err, ErrNotBuilt) {
			t.Errorf("%s on unbuilt index: err = %v, want ErrNotBuilt", name, err)
		}
	}

	for _, m := range []struct {
		name string
		call func()
	}{
		{"Entries", func() { ix.Entries() }},
		{"Replace", func() { ix.Replace("a", nil) }},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s on unbuilt index did not panic", m.name)
					return
				}
				if s, ok := r.(string); !ok || !strings.Contains(s, "unbuilt") {
					t.Errorf("%s panic = %v, want invariant message naming the unbuilt index", m.name, r)
				}
			}()
			m.call()
		}()
	}
}

// TestConcurrentReadsRaceFree is the -race regression test for the
// lazy-build bug: many goroutines hammer the read path of (a) a built
// index, and (b) an unbuilt one, concurrently. Before build-at-publish,
// case (b) raced on the implicit Build; now reads never mutate the
// index, so -race must stay silent and the unbuilt reads all fail.
func TestConcurrentReadsRaceFree(t *testing.T) {
	r := rng.New(3)
	built, unbuilt := New(), New()
	for i := 0; i < 200; i++ {
		e := entry("c", i, r.Float64Range(0, 50), r.Float64Range(0, 50))
		built.Add(e)
		unbuilt.Add(e)
	}
	built.Build()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var sc Scratch
			var dst []Entry
			for i := 0; i < 200; i++ {
				q := Query{VarBA: r.Float64Range(0, 50), VarOA: r.Float64Range(0, 50)}
				var err error
				dst, err = built.SearchAppend(dst[:0], q, DefaultOptions(), &sc)
				if err != nil {
					t.Errorf("built Search: %v", err)
					return
				}
				if _, err := unbuilt.Search(q, DefaultOptions()); !errors.Is(err, ErrNotBuilt) {
					t.Errorf("unbuilt Search: err = %v, want ErrNotBuilt", err)
					return
				}
			}
		}(uint64(g + 1))
	}
	wg.Wait()
}

// --- allocation discipline ---

// TestSearchAppendZeroAllocs: with a reused Scratch and a dst at
// capacity, the scalar kernel's steady state allocates nothing.
func TestSearchAppendZeroAllocs(t *testing.T) {
	ix, qs := allocProbeIndex()
	var sc Scratch
	dst := make([]Entry, 0, 64)
	qi := 0
	// Warm up the scratch high-water marks.
	for _, q := range qs {
		var err error
		if dst, err = ix.SearchAppend(dst[:0], q, DefaultOptions(), &sc); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		q := qs[qi%len(qs)]
		qi++
		var err error
		if dst, err = ix.SearchAppend(dst[:0], q, DefaultOptions(), &sc); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("SearchAppend steady state allocates %.1f allocs/op, want 0", avg)
	}
}

func allocProbeIndex() (*Index, []Query) {
	r := rng.New(9)
	ix := New()
	for i := 0; i < 500; i++ {
		ix.Add(entry("c", i, r.Float64Range(0, 50), r.Float64Range(0, 50)))
	}
	ix.Build()
	qs := make([]Query, 16)
	for i := range qs {
		qs[i] = Query{VarBA: r.Float64Range(0, 50), VarOA: r.Float64Range(0, 50)}
	}
	return ix, qs
}

// --- kernel benchmarks (1× and 10× corpus) ---

func benchCorpus(n int) (*Index, []Query) {
	r := rng.New(5)
	ix := New()
	for i := 0; i < n; i++ {
		ix.Add(entry("c", i, r.Float64Range(0, 60), r.Float64Range(0, 60)))
	}
	ix.Build()
	qs := make([]Query, 64)
	for i := range qs {
		qs[i] = Query{VarBA: r.Float64Range(0, 60), VarOA: r.Float64Range(0, 60)}
	}
	return ix, qs
}

func benchScalarKernel(b *testing.B, n int) {
	ix, qs := benchCorpus(n)
	var sc Scratch
	dst := make([]Entry, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = ix.SearchAppend(dst[:0], qs[i%len(qs)], DefaultOptions(), &sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelScalar1k(b *testing.B)  { benchScalarKernel(b, 1_000) }
func BenchmarkKernelScalar10k(b *testing.B) { benchScalarKernel(b, 10_000) }
