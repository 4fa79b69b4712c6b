package region

import (
	"testing"

	"videodb/internal/pyramid"
	"videodb/internal/video"
)

// TestGeometry160x120 checks the paper's own frame size (§5.1): 160×120
// at the 10% border gives w' = 16 → w = 13.
func TestGeometry160x120(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	if g.WPrime != 16 {
		t.Errorf("w' = %d, want 16", g.WPrime)
	}
	if g.W != 13 {
		t.Errorf("w = %d, want 13", g.W)
	}
	if g.BPrime != 128 || g.HPrime != 104 || g.LPrime != 368 {
		t.Errorf("b'=%d h'=%d L'=%d, want 128/104/368", g.BPrime, g.HPrime, g.LPrime)
	}
	for _, v := range []int{g.W, g.B, g.H, g.L} {
		if !pyramid.IsSize(v) {
			t.Errorf("approximated dimension %d not in size set", v)
		}
	}
}

func TestGeometryErrors(t *testing.T) {
	if _, err := New(0, 120); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(5, 5); err == nil {
		t.Error("tiny frame accepted (w' would be 0)")
	}
	if _, err := NewWithBorderFrac(160, 120, 0); err == nil {
		t.Error("zero border fraction accepted")
	}
	if _, err := NewWithBorderFrac(160, 120, 0.5); err == nil {
		t.Error("half border fraction accepted (no FOA left)")
	}
}

func TestTBADimensions(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	tba := g.TBA(f)
	if tba.W != g.L || tba.H != g.W {
		t.Errorf("TBA is %dx%d, want %dx%d", tba.W, tba.H, g.L, g.W)
	}
	if !pyramid.IsSize(tba.W) || !pyramid.IsSize(tba.H) {
		t.Error("TBA dimensions not in size set")
	}
}

func TestFOADimensions(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	foa := g.FOA(f)
	if foa.W != g.B || foa.H != g.H {
		t.Errorf("FOA is %dx%d, want %dx%d", foa.W, foa.H, g.B, g.H)
	}
}

// TestTBASamplesOnlyBackground paints the FBA red and the FOA blue; the
// TBA must contain only red pixels.
func TestTBASamplesOnlyBackground(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	red := video.RGB(255, 0, 0)
	blue := video.RGB(0, 0, 255)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			if g.InFBA(x, y) {
				f.Set(x, y, red)
			} else {
				f.Set(x, y, blue)
			}
		}
	}
	tba := g.TBA(f)
	for i, p := range tba.Pix {
		if p != red {
			t.Fatalf("TBA pixel %d = %v, sampled outside the FBA", i, p)
		}
	}
}

// TestFOASamplesOnlyForeground is the dual test for the FOA.
func TestFOASamplesOnlyForeground(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	red := video.RGB(255, 0, 0)
	blue := video.RGB(0, 0, 255)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			if g.InFOA(x, y) {
				f.Set(x, y, blue)
			} else {
				f.Set(x, y, red)
			}
		}
	}
	foa := g.FOA(f)
	for i, p := range foa.Pix {
		if p != blue {
			t.Fatalf("FOA pixel %d = %v, sampled outside the FOA", i, p)
		}
	}
}

// TestFBAAndFOAPartition: except for the bottom corners (outside both
// regions, below the side columns per Figure 1 the columns run the full
// remaining height, so actually FBA ∪ FOA covers the frame and they are
// disjoint).
func TestFBAAndFOADisjointAndCover(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < 120; y++ {
		for x := 0; x < 160; x++ {
			inB, inO := g.InFBA(x, y), g.InFOA(x, y)
			if inB && inO {
				t.Fatalf("(%d,%d) in both FBA and FOA", x, y)
			}
			if !inB && !inO {
				t.Fatalf("(%d,%d) in neither FBA nor FOA", x, y)
			}
		}
	}
}

// TestTBAContinuity: the unfolding must be continuous at the junctions —
// a frame whose background is a smooth horizontal gradient in the top
// bar and a matching vertical gradient in the side columns produces a
// TBA without large jumps between adjacent strip columns.
func TestTBAContinuity(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	// Distance travelled along the ⊓ from the bottom of the left column
	// determines brightness, so the unfolded strip is a single gradient.
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			var d int
			switch {
			case x < g.WPrime && y >= g.WPrime:
				d = g.HPrime - (y - g.WPrime)
			case x >= f.W-g.WPrime && y >= g.WPrime:
				d = g.HPrime + f.W + (y - g.WPrime)
			default:
				d = g.HPrime + x
			}
			v := uint8(d * 255 / (g.LPrime - 1))
			f.Set(x, y, video.RGB(v, v, v))
		}
	}
	tba := g.TBA(f)
	// Row 0 of the TBA corresponds to the outer frame edge; check the
	// gradient there is monotone without jumps.
	prev := -1
	for x := 0; x < tba.W; x++ {
		v := int(tba.At(x, 0).R)
		if prev >= 0 {
			if v < prev-3 {
				t.Fatalf("TBA row 0 not monotone at %d: %d after %d", x, v, prev)
			}
			if v > prev+6 {
				t.Fatalf("TBA row 0 jumps at %d: %d after %d", x, v, prev)
			}
		}
		prev = v
	}
}

// TestTBAPanShiftsStrip: panning the camera right shifts the top-bar
// section of the TBA left — the core signal the camera-tracking SBD
// exploits.
func TestTBAPanShiftsStrip(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	// A wide background canvas with a vertical stripe.
	canvas := video.NewFrame(400, 120)
	for y := 0; y < 120; y++ {
		for x := 180; x < 200; x++ {
			canvas.Set(x, y, video.RGB(255, 255, 255))
		}
	}
	view := func(offset int) *video.Frame {
		return canvas.SubImage(offset, 0, offset+160, 120)
	}
	tbaA := g.TBA(view(100))
	tbaB := g.TBA(view(110)) // camera panned right by 10 frame pixels

	stripe := func(tba *video.Frame) int {
		for x := 0; x < tba.W; x++ {
			if tba.At(x, 0).R > 128 {
				return x
			}
		}
		return -1
	}
	a, b := stripe(tbaA), stripe(tbaB)
	if a < 0 || b < 0 {
		t.Fatal("stripe not found in TBA")
	}
	if b >= a {
		t.Errorf("pan right should shift TBA stripe left: %d -> %d", a, b)
	}
}

func TestTBAPanicsOnWrongFrameSize(t *testing.T) {
	g, err := New(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TBA on mismatched frame did not panic")
		}
	}()
	g.TBA(video.NewFrame(100, 100))
}

func TestGeometryVariousSizes(t *testing.T) {
	for _, dims := range [][2]int{{160, 120}, {320, 240}, {176, 144}, {352, 288}, {640, 480}, {20, 20}} {
		g, err := New(dims[0], dims[1])
		if err != nil {
			t.Errorf("New(%d,%d): %v", dims[0], dims[1], err)
			continue
		}
		f := video.NewFrame(dims[0], dims[1])
		tba := g.TBA(f)
		foa := g.FOA(f)
		for _, v := range []int{tba.W, tba.H, foa.W, foa.H} {
			if !pyramid.IsSize(v) {
				t.Errorf("frame %v: dimension %d not in size set (%s)", dims, v, g)
			}
		}
	}
}

// TestSamplingMapsMatchStripToFrame: the precomputed maps name, for
// every TBA and FOA pixel, the frame pixel that stripToFrame and scale
// give for it, and every such pixel lies inside the frame and in its
// own area.
func TestSamplingMapsMatchStripToFrame(t *testing.T) {
	for _, size := range [][2]int{{20, 15}, {64, 48}, {160, 120}, {161, 121}, {320, 240}} {
		for _, frac := range []float64{0.05, 0.10, 0.30} {
			g, err := NewWithBorderFrac(size[0], size[1], frac)
			if err != nil {
				t.Fatalf("%dx%d frac %v: %v", size[0], size[1], frac, err)
			}
			tba := g.TBAIndex()
			if len(tba) != g.W*g.L {
				t.Fatalf("%s: TBA map has %d entries, want %d", g, len(tba), g.W*g.L)
			}
			for ty := 0; ty < g.W; ty++ {
				for tx := 0; tx < g.L; tx++ {
					fx, fy := g.stripToFrame(scale(tx, g.L, g.LPrime), scale(ty, g.W, g.WPrime))
					if got, want := tba[ty*g.L+tx], int32(fy*g.C+fx); got != want {
						t.Fatalf("%s: TBA map at (%d,%d) = %d, want %d", g, tx, ty, got, want)
					}
					if !g.InFBA(fx, fy) {
						t.Fatalf("%s: TBA pixel (%d,%d) samples (%d,%d) outside the FBA", g, tx, ty, fx, fy)
					}
				}
			}
			cols, rows := g.FOAIndex()
			if len(cols) != g.B || len(rows) != g.H {
				t.Fatalf("%s: FOA maps %d×%d, want %d×%d", g, len(cols), len(rows), g.B, g.H)
			}
			for ox, fx := range cols {
				if want := g.WPrime + scale(ox, g.B, g.BPrime); int(fx) != want {
					t.Fatalf("%s: FOA column %d = %d, want %d", g, ox, fx, want)
				}
			}
			for oy, fy := range rows {
				if want := g.WPrime + scale(oy, g.H, g.HPrime); int(fy) != want {
					t.Fatalf("%s: FOA row %d = %d, want %d", g, oy, fy, want)
				}
				for _, fx := range cols {
					if !g.InFOA(int(fx), int(fy)) {
						t.Fatalf("%s: FOA samples (%d,%d) outside the FOA", g, fx, fy)
					}
				}
			}
		}
	}
}

func BenchmarkTBA160x120(b *testing.B) {
	g, _ := New(160, 120)
	f := video.NewFrame(160, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.TBA(f)
	}
}
