package varindex

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"videodb/internal/rng"
)

func entry(clip string, shot int, varBA, varOA float64) Entry {
	return Entry{Clip: clip, Shot: shot, VarBA: varBA, VarOA: varOA}
}

func TestEntryDv(t *testing.T) {
	e := entry("x", 0, 25, 4)
	if e.Dv() != 3 {
		t.Errorf("Dv = %v, want 3", e.Dv())
	}
	if e.SqrtBA() != 5 {
		t.Errorf("SqrtBA = %v, want 5", e.SqrtBA())
	}
	if e.Key() != "x#0" {
		t.Errorf("Key = %q", e.Key())
	}
}

func TestSearchExactMatch(t *testing.T) {
	ix := New()
	ix.Add(entry("a", 0, 25, 4))  // Dv=3, sqrtBA=5
	ix.Add(entry("a", 1, 100, 1)) // Dv=9, sqrtBA=10
	ix.Add(entry("b", 0, 16, 16)) // Dv=0, sqrtBA=4
	ix.Build()

	got, err := ix.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Key() != "a#0" {
		t.Fatalf("got %v, want just a#0", got)
	}
}

func TestSearchToleranceWindows(t *testing.T) {
	ix := New()
	// Query at Dv=3, sqrtBA=5 (VarBA=25, VarOA=4).
	ix.Add(entry("in", 0, 25, 4))
	// Dv = 2.1 (inside α=1), same sqrtBA: VarOA = 2.9² = 8.41.
	ix.Add(entry("in", 1, 25, 8.41))
	// Dv = 1.5 (outside α): VarOA = 3.5² = 12.25.
	ix.Add(entry("out", 0, 25, 12.25))
	// Dv = 3 but sqrtBA = 7 (outside β): VarBA=49, VarOA=16.
	ix.Add(entry("out", 1, 49, 16))
	ix.Build()

	got, err := ix.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries %v, want 2", len(got), got)
	}
	for _, e := range got {
		if e.Clip != "in" {
			t.Errorf("entry %v should have been excluded", e)
		}
	}
	// Nearest first: the exact match leads.
	if got[0].Key() != "in#0" {
		t.Errorf("nearest entry = %v, want in#0", got[0])
	}
}

func TestSearchBoundariesInclusive(t *testing.T) {
	ix := New()
	// Query Dv=0, sqrtBA=1 (VarBA=1, VarOA=1). Entry at Dv exactly ±α.
	ix.Add(entry("edge", 0, 1, 4)) // Dv = 1-2 = -1 = Dq-α, sqrtBA=1
	ix.Add(entry("edge", 1, 4, 1)) // Dv = 2-1 = +1 = Dq+α, sqrtBA=2 = 1+β
	ix.Build()
	got, err := ix.Search(Query{VarBA: 1, VarOA: 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("boundary entries not inclusive: got %v", got)
	}
}

func TestSearchEmptyIndex(t *testing.T) {
	ix := New()
	got, err := ix.Search(Query{VarBA: 1, VarOA: 1}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
}

func TestSearchRejectsNegativeTolerance(t *testing.T) {
	ix := New()
	if _, err := ix.Search(Query{}, Options{Alpha: -1, Beta: 1}); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := ix.SearchLinear(Query{}, Options{Alpha: 1, Beta: -1}); err == nil {
		t.Error("negative beta accepted")
	}
}

// TestSearchEqualsLinear: the indexed range scan and the full linear
// scan must return identical result sets on random data.
func TestSearchEqualsLinear(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		ix := New()
		for i := 0; i < 200; i++ {
			ix.Add(entry("c", i, r.Float64Range(0, 60), r.Float64Range(0, 60)))
		}
		ix.Build()
		for trial := 0; trial < 10; trial++ {
			q := Query{VarBA: r.Float64Range(0, 60), VarOA: r.Float64Range(0, 60)}
			a, err1 := ix.Search(q, DefaultOptions())
			b, err2 := ix.SearchLinear(q, DefaultOptions())
			if err1 != nil || err2 != nil {
				return false
			}
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Key() != b[i].Key() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	ix := New()
	for i := 0; i < 10; i++ {
		// Dv spreads 0 .. 0.9, all within α of the query Dv=0.45.
		s := float64(i) * 0.1
		ix.Add(entry("c", i, (s+2)*(s+2), 4)) // sqrtBA = s+2, Dv = s
	}
	ix.Build()
	q := Query{VarBA: 2.45 * 2.45, VarOA: 4} // Dv = 0.45, sqrtBA = 2.45
	got, err := ix.TopK(q, DefaultOptions(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("TopK returned %d", len(got))
	}
	// Nearest shots are 4 and 5 (Dv 0.4, 0.5).
	if got[0].Shot != 4 && got[0].Shot != 5 {
		t.Errorf("nearest = shot %d, want 4 or 5", got[0].Shot)
	}
}

func TestTopKExcluding(t *testing.T) {
	ix := New()
	ix.Add(entry("c", 0, 25, 4))
	ix.Add(entry("c", 1, 25, 4))
	ix.Add(entry("c", 2, 25, 4))
	ix.Build()
	got, err := ix.TopKExcluding(Query{VarBA: 25, VarOA: 4}, DefaultOptions(), 5, "c", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries", len(got))
	}
	for _, e := range got {
		if e.Clip == "c" && e.Shot == 1 {
			t.Error("excluded entry returned")
		}
	}
}

func TestEntriesSortedByDv(t *testing.T) {
	ix := New()
	r := rng.New(5)
	for i := 0; i < 100; i++ {
		ix.Add(entry("c", i, r.Float64Range(0, 50), r.Float64Range(0, 50)))
	}
	ix.Build()
	es := ix.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Dv() > es[i].Dv() {
			t.Fatalf("entries not sorted at %d: %v > %v", i, es[i-1].Dv(), es[i].Dv())
		}
	}
	if ix.Len() != 100 {
		t.Errorf("Len = %d", ix.Len())
	}
}

// TestAddAfterSearch: Add unbuilds the index — reads fail with
// ErrNotBuilt until Build runs again, and the rebuilt index sees the
// late entry. (There is deliberately no lazy rebuild: a read that
// builds would mutate what the lock-free query path shares as an
// immutable reader.)
func TestAddAfterSearch(t *testing.T) {
	ix := New()
	ix.Add(entry("a", 0, 25, 4))
	ix.Build()
	if _, err := ix.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	ix.Add(entry("a", 1, 25, 4))
	if _, err := ix.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions()); !errors.Is(err, ErrNotBuilt) {
		t.Fatalf("Search on unbuilt index: err = %v, want ErrNotBuilt", err)
	}
	ix.Build()
	got, err := ix.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries after late add, want 2", len(got))
	}
}

// TestZeroVarianceShots: static shots (both variances zero) are legal
// and retrievable.
func TestZeroVarianceShots(t *testing.T) {
	ix := New()
	ix.Add(entry("static", 0, 0, 0))
	ix.Build()
	got, err := ix.Search(Query{VarBA: 0, VarOA: 0}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("static shot not found: %v", got)
	}
	if math.IsNaN(got[0].Dv()) {
		t.Error("Dv is NaN for zero variances")
	}
}

func BenchmarkSearchIndexed10k(b *testing.B) {
	ix := New()
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		ix.Add(entry("c", i, r.Float64Range(0, 60), r.Float64Range(0, 60)))
	}
	ix.Build()
	q := Query{VarBA: 25, VarOA: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Search(q, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchLinear10k(b *testing.B) {
	ix := New()
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		ix.Add(entry("c", i, r.Float64Range(0, 60), r.Float64Range(0, 60)))
	}
	ix.Build()
	q := Query{VarBA: 25, VarOA: 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.SearchLinear(q, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReplaceRemovesClip(t *testing.T) {
	ix := New()
	ix.Add(entry("a", 0, 25, 4))
	ix.Add(entry("b", 0, 25, 4))
	ix.Add(entry("a", 1, 16, 1))
	ix.Build()
	out := ix.Replace("a", nil)
	if out.Len() != 1 {
		t.Fatalf("len = %d after removal", out.Len())
	}
	// The receiver is untouched — Replace is a pure copy.
	if ix.Len() != 3 {
		t.Fatalf("receiver len = %d after Replace, want 3", ix.Len())
	}
	got, err := out.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Clip != "b" {
		t.Fatalf("post-removal search = %v", got)
	}
	same := out.Replace("missing", nil)
	if same.Len() != out.Len() {
		t.Errorf("removing a missing clip changed the length: %d", same.Len())
	}
	// The copy's preserved key cache must agree with a fresh build.
	rebuilt := New()
	for _, e := range out.Entries() {
		rebuilt.Add(e)
	}
	rebuilt.Build()
	fresh, err := rebuilt.Search(Query{VarBA: 25, VarOA: 4}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) != len(got) || fresh[0].Key() != got[0].Key() {
		t.Errorf("Replace copy disagrees with a rebuilt index: %v vs %v", got, fresh)
	}
}
