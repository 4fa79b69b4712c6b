package varindex

import (
	"math"
	"strconv"
	"testing"

	"videodb/internal/rng"
)

// The Replace ≡ rebuild differential suite. Replace is the write path's
// one derivation (insert, re-ingest and delete of a clip); the procedure
// it replaced re-Added every surviving entry and the clip's new ones
// into a fresh index and Built it. After every step of a random write
// sequence the two must agree bit for bit — entries and all four cached
// key arrays — and the receiver must be left as it was. Variances are
// small integers, so D^v ties (where the merge's tie order matters) are
// common.

// rebuild is the write path Replace replaced, written out: Add the
// base's entries except clip's, then the new entries, then Build.
func rebuild(base *Index, clip string, entries []Entry) *Index {
	ix := New()
	for _, e := range base.Entries() {
		if e.Clip != clip {
			ix.Add(e)
		}
	}
	for _, e := range entries {
		ix.Add(e)
	}
	ix.Build()
	return ix
}

// sameIndex fails unless got and want hold bit-identical entries and
// cached keys, in the same order.
func sameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if len(got.entries) != len(want.entries) || len(got.dvs) != len(want.dvs) ||
		len(got.sqrts) != len(want.sqrts) || len(got.sq32) != len(want.sq32) ||
		len(got.mean32) != len(want.mean32) || !got.built {
		t.Fatalf("%s: shapes differ: got %d entries (built %v), want %d", label, len(got.entries), got.built, len(want.entries))
	}
	for i := range want.entries {
		if got.entries[i] != want.entries[i] {
			t.Fatalf("%s: entry %d: got %+v, want %+v", label, i, got.entries[i], want.entries[i])
		}
		if math.Float64bits(got.dvs[i]) != math.Float64bits(want.dvs[i]) ||
			math.Float64bits(got.sqrts[i]) != math.Float64bits(want.sqrts[i]) ||
			math.Float32bits(got.sq32[i]) != math.Float32bits(want.sq32[i]) {
			t.Fatalf("%s: keys of entry %d differ", label, i)
		}
	}
	for i := range want.mean32 {
		if math.Float32bits(got.mean32[i]) != math.Float32bits(want.mean32[i]) {
			t.Fatalf("%s: mean32[%d] differs", label, i)
		}
	}
}

// replaceStep applies one write both ways, checks them against each
// other and the receiver against its pre-write state, and returns the
// successor index.
func replaceStep(t *testing.T, step int, cur *Index, clip string, entries []Entry) *Index {
	t.Helper()
	before := rebuild(cur, "", nil)
	got := cur.Replace(clip, entries)
	sameIndex(t, "Replace vs rebuild at step "+strconv.Itoa(step), got, rebuild(cur, clip, entries))
	sameIndex(t, "receiver after Replace at step "+strconv.Itoa(step), cur, before)
	return got
}

// replaceClips is the clip-name pool a write sequence draws from: few
// enough that inserts, re-ingests and deletes all happen often.
var replaceClips = []string{"a", "b", "c", "d", "e", "f"}

// TestReplaceEquivalenceProperty runs seeded random write sequences.
func TestReplaceEquivalenceProperty(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 60; trial++ {
		cur := New()
		for step := 0; step < 40; step++ {
			clip := replaceClips[r.Intn(len(replaceClips))]
			var entries []Entry
			if !r.Bool(0.25) { // else a delete
				for shot, n := 0, r.Intn(6); shot < n; shot++ {
					entries = append(entries, Entry{
						Clip: clip, Shot: shot, Start: 10 * shot, End: 10*shot + 9,
						VarBA: float64(r.Intn(10)), VarOA: float64(r.Intn(10)),
						MeanBA: [3]float64{r.Float64Range(-2, 2), float64(trial), float64(step)},
					})
				}
			}
			cur = replaceStep(t, step, cur, clip, entries)
		}
	}
}

// FuzzReplaceEquivalence drives the same property with fuzzer-chosen
// write sequences: per step one byte picks the clip, whether the write
// is a delete and how many shots it carries, then two bytes per shot
// give its variances.
func FuzzReplaceEquivalence(f *testing.F) {
	f.Add([]byte{0x00, 0x12, 0x34, 0x56, 0x78, 0x06, 0x21, 0x43})
	f.Add([]byte{0x31, 0x00, 0x00, 0x00, 0x00, 0x31, 0x11, 0x11, 0x60, 0x30})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		cur := New()
		for step := 0; len(data) > 0 && step < 64; step++ {
			b := data[0]
			data = data[1:]
			clip := replaceClips[int(b)%len(replaceClips)]
			var entries []Entry
			if b/6%4 != 0 { // else a delete
				for shot, n := 0, int(b)/24%8; shot < n && len(data) >= 2; shot++ {
					entries = append(entries, Entry{
						Clip: clip, Shot: shot,
						VarBA: float64(data[0] % 10), VarOA: float64(data[1] % 10),
						MeanBA: [3]float64{float64(data[0] / 10), float64(data[1] / 10), float64(step)},
					})
					data = data[2:]
				}
			}
			cur = replaceStep(t, step, cur, clip, entries)
		}
	})
}
