// Equivalence of the fused analysis kernel with the paper-literal
// reduction. External test package so it can drive the Table-5 corpus
// from internal/experiments, which imports feature.
package feature_test

import (
	"fmt"
	"testing"

	"videodb/internal/experiments"
	"videodb/internal/feature"
	"videodb/internal/pyramid"
	"videodb/internal/region"
	"videodb/internal/rng"
	"videodb/internal/video"
)

// refSignature reduces every column of grid with the paper-literal
// Reduce1D cascade, one extracted column at a time (Figure 3).
func refSignature(grid *video.Frame) []video.Pixel {
	sig := make([]video.Pixel, grid.W)
	col := make([]video.Pixel, grid.H)
	for x := range sig {
		for y := range col {
			col[y] = grid.Pix[y*grid.W+x]
		}
		sig[x] = pyramid.ReduceLineToPixel(col)
	}
	return sig
}

// refAnalyze is the reference Analyze: extract the TBA and FOA, reduce
// their columns with Reduce1D, then their signatures with
// ReduceLineToPixel.
func refAnalyze(g region.Geometry, f *video.Frame) feature.FrameFeature {
	sig := refSignature(g.TBA(f))
	return feature.FrameFeature{
		SignBA:    pyramid.ReduceLineToPixel(sig),
		SignOA:    pyramid.ReduceLineToPixel(refSignature(g.FOA(f))),
		Signature: sig,
	}
}

func checkAgainstReference(t *testing.T, what string, a *feature.Analyzer, f *video.Frame) {
	t.Helper()
	got := a.Analyze(f)
	want := refAnalyze(a.Geometry(), f)
	if got.SignBA != want.SignBA {
		t.Fatalf("%s: SignBA %v != %v", what, got.SignBA, want.SignBA)
	}
	if got.SignOA != want.SignOA {
		t.Fatalf("%s: SignOA %v != %v", what, got.SignOA, want.SignOA)
	}
	if len(got.Signature) != len(want.Signature) {
		t.Fatalf("%s: signature length %d != %d", what, len(got.Signature), len(want.Signature))
	}
	for i := range want.Signature {
		if got.Signature[i] != want.Signature[i] {
			t.Fatalf("%s: signature[%d] %v != %v", what, i, got.Signature[i], want.Signature[i])
		}
	}
}

func randomFrame(w, h int, r *rng.RNG) *video.Frame {
	f := video.NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = video.RGB(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
	}
	return f
}

// edgeFrames are the frames at the lanes' extremes: all-0, all-255
// (every tap sums to the 16·255+8 peak) and a 0/255 checkerboard.
func edgeFrames(w, h int) map[string]*video.Frame {
	black, white, check := video.NewFrame(w, h), video.NewFrame(w, h), video.NewFrame(w, h)
	white.Fill(video.RGB(255, 255, 255))
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if (x+y)%2 == 0 {
				check.Set(x, y, video.RGB(255, 255, 255))
			}
		}
	}
	return map[string]*video.Frame{"all-0": black, "all-255": white, "checkerboard": check}
}

// TestAnalyzeMatchesUnpooledPath: the pooled fused kernel must produce
// byte-identical features to the paper-literal reduction, on the
// Table-5 corpus, on random frames over a grid of sizes and border
// fractions, and on the frames at the lanes' extremes.
func TestAnalyzeMatchesUnpooledPath(t *testing.T) {
	a, err := feature.NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	for i := range f.Pix {
		f.Pix[i] = video.RGB(uint8(i*7), uint8(i*13), uint8(i*29))
	}
	checkAgainstReference(t, "ramp", a, f)

	r := rng.New(31)
	for _, size := range [][2]int{{20, 15}, {64, 48}, {161, 121}, {320, 240}} {
		for _, frac := range []float64{0.05, 0.10, 0.30} {
			g, err := region.NewWithBorderFrac(size[0], size[1], frac)
			if err != nil {
				t.Fatalf("%dx%d frac %v: %v", size[0], size[1], frac, err)
			}
			a := feature.NewAnalyzerWithGeometry(g)
			for i := 0; i < 3; i++ {
				checkAgainstReference(t, fmt.Sprintf("%v random %d", g, i), a, randomFrame(size[0], size[1], r))
			}
			for name, f := range edgeFrames(size[0], size[1]) {
				checkAgainstReference(t, fmt.Sprintf("%v %s", g, name), a, f)
			}
		}
	}

	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	frames := 0
	for _, d := range experiments.Table5Corpus() {
		clip, _, err := d.Build(0.02)
		if err != nil {
			t.Fatalf("synthesizing %q: %v", d.Name, err)
		}
		a, err := feature.NewAnalyzer(clip.Frames[0].W, clip.Frames[0].H)
		if err != nil {
			t.Fatal(err)
		}
		for i, f := range clip.Frames {
			checkAgainstReference(t, fmt.Sprintf("%s frame %d", d.Name, i), a, f)
		}
		frames += len(clip.Frames)
	}
	if frames == 0 {
		t.Fatal("the Table-5 corpus has no frames")
	}
}

// FuzzAnalyzeEquivalence: for any frame size, border fraction and
// pixels the fuzzer picks, Analyze equals the paper-literal reduction.
func FuzzAnalyzeEquivalence(f *testing.F) {
	f.Add(uint16(160), uint16(120), uint8(10), []byte{1, 2, 3, 250, 251, 252})
	f.Add(uint16(20), uint16(15), uint8(5), []byte{255})
	f.Add(uint16(64), uint16(48), uint8(30), []byte{0, 255})
	f.Fuzz(func(t *testing.T, w, h uint16, fracPct uint8, pix []byte) {
		// At most 320×240 keeps one reference reduction cheap.
		cw, ch := 1+int(w)%320, 1+int(h)%240
		g, err := region.NewWithBorderFrac(cw, ch, float64(fracPct%50)/100)
		if err != nil {
			t.Skip(err)
		}
		fr := video.NewFrame(cw, ch)
		if len(pix) > 0 {
			for i := range fr.Pix {
				k := 3 * i
				fr.Pix[i] = video.RGB(pix[k%len(pix)], pix[(k+1)%len(pix)], pix[(k+2)%len(pix)])
			}
		}
		checkAgainstReference(t, g.String(), feature.NewAnalyzerWithGeometry(g), fr)
	})
}

// texturedFrame is a seeded gradient plus noise: a frame whose
// reduction exercises every lane, unlike a solid one.
func texturedFrame(w, h int, seed uint64) *video.Frame {
	r := rng.New(seed)
	f := video.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			n := r.Intn(64)
			f.Set(x, y, video.RGB(uint8(x*160/w+n), uint8(y*160/h+n), uint8((x+y)*96/(w+h)+n)))
		}
	}
	return f
}

func BenchmarkAnalyze160x120(b *testing.B) {
	a, err := feature.NewAnalyzer(160, 120)
	if err != nil {
		b.Fatal(err)
	}
	f := texturedFrame(160, 120, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Analyze(f)
	}
}
