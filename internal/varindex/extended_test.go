package varindex

import "testing"

// Tests for the extended similarity model (Options.Gamma > 0), the §6
// future-work extension.

func extEntry(clip string, shot int, varBA, varOA float64, mean [3]float64) Entry {
	return Entry{Clip: clip, Shot: shot, VarBA: varBA, VarOA: varOA, MeanBA: mean}
}

func TestGammaZeroIsPaperModel(t *testing.T) {
	ix := New()
	ix.Add(extEntry("a", 0, 25, 4, [3]float64{10, 10, 10}))
	ix.Add(extEntry("a", 1, 25, 4, [3]float64{200, 200, 200}))
	ix.Build()
	got, err := ix.Search(Query{VarBA: 25, VarOA: 4, MeanBA: [3]float64{10, 10, 10}}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("paper model should ignore means: got %d entries", len(got))
	}
}

func TestGammaFiltersByMean(t *testing.T) {
	ix := New()
	ix.Add(extEntry("same", 0, 25, 4, [3]float64{100, 110, 120}))
	ix.Add(extEntry("near", 0, 25, 4, [3]float64{110, 120, 130}))
	ix.Add(extEntry("far", 0, 25, 4, [3]float64{200, 110, 120}))
	ix.Build()
	opt := DefaultOptions()
	opt.Gamma = 15
	q := Query{VarBA: 25, VarOA: 4, MeanBA: [3]float64{100, 110, 120}}
	got, err := ix.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2 (far excluded)", len(got))
	}
	for _, e := range got {
		if e.Clip == "far" {
			t.Error("far-mean entry not filtered")
		}
	}
}

func TestGammaSingleChannelExceedance(t *testing.T) {
	ix := New()
	// Only the green channel exceeds gamma.
	ix.Add(extEntry("g", 0, 25, 4, [3]float64{100, 150, 100}))
	ix.Build()
	opt := DefaultOptions()
	opt.Gamma = 20
	got, err := ix.Search(Query{VarBA: 25, VarOA: 4, MeanBA: [3]float64{100, 100, 100}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Error("entry with one out-of-gamma channel matched")
	}
}

func TestGammaNegativeRejected(t *testing.T) {
	ix := New()
	if _, err := ix.Search(Query{}, Options{Alpha: 1, Beta: 1, Gamma: -1}); err == nil {
		t.Error("negative gamma accepted")
	}
}

func TestGammaConsistentAcrossSearchPaths(t *testing.T) {
	ix := New()
	ix.Add(extEntry("a", 0, 25, 4, [3]float64{100, 100, 100}))
	ix.Add(extEntry("b", 0, 25, 4, [3]float64{180, 100, 100}))
	ix.Build()
	opt := DefaultOptions()
	opt.Gamma = 30
	q := Query{VarBA: 25, VarOA: 4, MeanBA: [3]float64{100, 100, 100}}
	idx, err := ix.Search(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	lin, err := ix.SearchLinear(q, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 1 || len(lin) != 1 {
		t.Fatalf("paths disagree: indexed %d, linear %d", len(idx), len(lin))
	}
	if idx[0].Clip != "a" || lin[0].Clip != "a" {
		t.Error("wrong entry survived the gamma filter")
	}
}
