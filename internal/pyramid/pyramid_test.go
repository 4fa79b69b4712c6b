package pyramid

import (
	"testing"
	"testing/quick"

	"videodb/internal/rng"
	"videodb/internal/video"
)

func TestSizeAt(t *testing.T) {
	want := []int{1, 5, 13, 29, 61, 125, 253}
	for j, w := range want {
		if got := SizeAt(j + 1); got != w {
			t.Errorf("SizeAt(%d) = %d, want %d", j+1, got, w)
		}
	}
}

func TestSizeRecurrence(t *testing.T) {
	// s_j = 2*s_{j-1} + 3 must hold for the 5→1 reduction to tile.
	for j := 2; j <= 10; j++ {
		if SizeAt(j) != 2*SizeAt(j-1)+3 {
			t.Errorf("recurrence fails at j=%d: %d != 2*%d+3", j, SizeAt(j), SizeAt(j-1))
		}
	}
}

func TestSizes(t *testing.T) {
	got := Sizes(125)
	want := []int{1, 5, 13, 29, 61, 125}
	if len(got) != len(want) {
		t.Fatalf("Sizes(125) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sizes(125) = %v, want %v", got, want)
		}
	}
	if len(Sizes(0)) != 0 {
		t.Error("Sizes(0) should be empty")
	}
}

func TestIsSize(t *testing.T) {
	for _, n := range []int{1, 5, 13, 29, 61, 125} {
		if !IsSize(n) {
			t.Errorf("IsSize(%d) = false", n)
		}
	}
	for _, n := range []int{2, 3, 4, 6, 12, 14, 28, 30, 60, 62, 124, 126} {
		if IsSize(n) {
			t.Errorf("IsSize(%d) = true", n)
		}
	}
}

// TestNearestTable1 checks the exact ranges printed in Table 1 of the
// paper.
func TestNearestTable1(t *testing.T) {
	ranges := []struct {
		lo, hi, want int
	}{
		{1, 2, 1},
		{3, 8, 5},
		{9, 20, 13},
		{21, 44, 29},
		{45, 92, 61},
		{93, 188, 125},
	}
	for _, r := range ranges {
		for n := r.lo; n <= r.hi; n++ {
			if got := Nearest(n); got != r.want {
				t.Errorf("Nearest(%d) = %d, want %d", n, got, r.want)
			}
		}
	}
}

// TestNearestPaperExample checks the worked example from §2.2: c = 160
// gives w' = 16 and w = 13.
func TestNearestPaperExample(t *testing.T) {
	wPrime := 160 / 10
	if got := NearestIndex(wPrime); got != 3 {
		t.Errorf("NearestIndex(16) = %d, want 3", got)
	}
	if got := Nearest(wPrime); got != 13 {
		t.Errorf("Nearest(16) = %d, want 13", got)
	}
}

func TestNearestAlwaysInSizeSet(t *testing.T) {
	for n := 1; n <= 2000; n++ {
		if got := Nearest(n); !IsSize(got) {
			t.Fatalf("Nearest(%d) = %d not in size set", n, got)
		}
	}
}

func TestNearestPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Nearest(0) did not panic")
		}
	}()
	Nearest(0)
}

func constLine(n int, p video.Pixel) []video.Pixel {
	line := make([]video.Pixel, n)
	for i := range line {
		line[i] = p
	}
	return line
}

func TestReduce1DLength(t *testing.T) {
	for _, n := range []int{5, 13, 29, 61, 125} {
		out := Reduce1D(constLine(n, video.Pixel{}))
		if len(out) != (n-3)/2 {
			t.Errorf("Reduce1D(len %d) has length %d, want %d", n, len(out), (n-3)/2)
		}
		if !IsSize(len(out)) {
			t.Errorf("Reduce1D(len %d) output length %d not in size set", n, len(out))
		}
	}
}

func TestReduce1DConstantPreserved(t *testing.T) {
	p := video.RGB(219, 152, 142)
	out := Reduce1D(constLine(13, p))
	for i, q := range out {
		if q != p {
			t.Errorf("constant line changed at %d: %v", i, q)
		}
	}
}

func TestReduce1DPanicsOnBadLength(t *testing.T) {
	for _, n := range []int{1, 2, 4, 6, 12} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Reduce1D(len %d) did not panic", n)
				}
			}()
			Reduce1D(constLine(n, video.Pixel{}))
		}()
	}
}

// TestReduceBounds: each output channel lies within [min, max] of the
// input channels — the Gaussian kernel is a convex combination.
func TestReduceBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		line := make([]video.Pixel, 13)
		minR, maxR := uint8(255), uint8(0)
		for i := range line {
			line[i] = video.RGB(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
			if line[i].R < minR {
				minR = line[i].R
			}
			if line[i].R > maxR {
				maxR = line[i].R
			}
		}
		p := ReduceLineToPixel(line)
		return p.R >= minR && p.R <= maxR
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestFigure3Shape reproduces the 13×5 TBA example of Figure 3: five
// pixels per column collapse to a 13-pixel signature, which collapses to
// one sign.
func TestFigure3Shape(t *testing.T) {
	g := video.NewFrame(13, 5)
	r := rng.New(1)
	for i := range g.Pix {
		g.Pix[i] = video.RGB(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
	}
	sig, sign := SignatureAndSign(g)
	if len(sig) != 13 {
		t.Fatalf("signature length = %d, want 13", len(sig))
	}
	if got := Sign(g); got != sign {
		t.Errorf("Sign and SignatureAndSign disagree: %v != %v", got, sign)
	}
}

func TestSignatureConstantGrid(t *testing.T) {
	p := video.RGB(100, 150, 200)
	g := video.NewFrame(29, 13)
	g.Fill(p)
	sig := Signature(g)
	for i, q := range sig {
		if q != p {
			t.Fatalf("constant grid signature changed at %d: %v", i, q)
		}
	}
	if s := Sign(g); s != p {
		t.Fatalf("constant grid sign = %v, want %v", s, p)
	}
}

// TestSignatureColumnLocality: the signature preserves horizontal
// structure — a grid whose left half is dark and right half is bright
// must produce a signature with the same split.
func TestSignatureColumnLocality(t *testing.T) {
	g := video.NewFrame(29, 5)
	for y := 0; y < g.H; y++ {
		for x := 0; x < g.W; x++ {
			if x < g.W/2 {
				g.Set(x, y, video.RGB(10, 10, 10))
			} else {
				g.Set(x, y, video.RGB(240, 240, 240))
			}
		}
	}
	sig := Signature(g)
	if sig[0].R != 10 || sig[28].R != 240 {
		t.Errorf("signature lost horizontal structure: %v ... %v", sig[0], sig[28])
	}
}

func TestSignPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sign on 12-wide grid did not panic")
		}
	}()
	Sign(video.NewFrame(12, 5))
}

func TestSteps(t *testing.T) {
	want := map[int]int{1: 0, 5: 1, 13: 2, 29: 3, 61: 4, 125: 5}
	for n, w := range want {
		if got := Steps(n); got != w {
			t.Errorf("Steps(%d) = %d, want %d", n, got, w)
		}
	}
}

// TestReduceShiftCovariance: shifting a pattern along the line shifts the
// reduced output the corresponding amount — the property the
// signature-shift matching in SBD stage 3 relies on.
func TestReduceShiftCovariance(t *testing.T) {
	base := make([]video.Pixel, 29)
	for i := range base {
		base[i] = video.RGB(uint8(i*8), 0, 0)
	}
	shifted := make([]video.Pixel, 29)
	copy(shifted, base[2:])
	shifted[27] = base[28]
	shifted[28] = base[28]

	a := Reduce1D(base)
	b := Reduce1D(shifted)
	// Output k of the shifted line should match output k of the base
	// line offset by one (2-pixel input shift halves at each level).
	for k := 0; k+1 < len(a); k++ {
		if d := a[k+1].MaxChannelDiff(b[k]); d > 8 {
			t.Errorf("shift covariance violated at %d: diff %d", k, d)
		}
	}
}

func BenchmarkSign13x5(b *testing.B) {
	g := video.NewFrame(13, 5)
	r := rng.New(1)
	for i := range g.Pix {
		g.Pix[i] = video.RGB(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sign(g)
	}
}

func BenchmarkSignature381x13(b *testing.B) {
	// A realistic TBA for 160×120 frames: w=13, L=381? L must be in the
	// size set; use 253 (nearest to 160+2*107=374 is 253? no — test the
	// cost at a large size-set width anyway).
	g := video.NewFrame(253, 13)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Signature(g)
	}
}

// TestReducerAllocatesNothing: a warmed Reducer reduces without
// allocating.
func TestReducerAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := video.NewFrame(125, 125)
	r := NewReducer(125, 125)
	sig := make([]video.Pixel, g.W)
	if n := testing.AllocsPerRun(100, func() { r.Reduce(g, sig) }); n != 0 {
		t.Errorf("Reducer.Reduce allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { r.Sign(g) }); n != 0 {
		t.Errorf("Reducer.Sign allocates %v times, want 0", n)
	}
}

func BenchmarkReducer125x125(b *testing.B) {
	g := video.NewFrame(125, 125)
	r := rng.New(1)
	for i := range g.Pix {
		g.Pix[i] = video.RGB(uint8(r.Intn(256)), uint8(r.Intn(256)), uint8(r.Intn(256)))
	}
	red := NewReducer(g.W, g.H)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		red.Sign(g)
	}
}
