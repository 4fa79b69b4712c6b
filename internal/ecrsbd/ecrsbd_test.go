package ecrsbd

import (
	"testing"

	"videodb/internal/video"
	"videodb/internal/vtest"
)

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	base := DefaultConfig()
	mutations := []func(*Config){
		func(c *Config) { c.EdgeThreshold = 0 },
		func(c *Config) { c.DilateRadius = -1 },
		func(c *Config) { c.ECRThreshold = 0 },
		func(c *Config) { c.ECRThreshold = 1.5 },
		func(c *Config) { c.MinEdgePixels = -5 },
		func(c *Config) { c.SpikeFactor = 0.5 },
		func(c *Config) { c.SpikeWindow = -1 },
	}
	for i, mut := range mutations {
		c := base
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d validated", i)
		}
	}
}

func TestEdgeMapFindsStep(t *testing.T) {
	f := video.NewFrame(20, 20)
	for y := 0; y < 20; y++ {
		for x := 10; x < 20; x++ {
			f.Set(x, y, video.RGB(255, 255, 255))
		}
	}
	edges := EdgeMap(f, 96)
	foundAtStep, foundElsewhere := false, false
	for y := 2; y < 18; y++ {
		for x := 2; x < 18; x++ {
			if edges[y*20+x] {
				if x >= 8 && x <= 11 {
					foundAtStep = true
				} else {
					foundElsewhere = true
				}
			}
		}
	}
	if !foundAtStep {
		t.Error("vertical step edge not detected")
	}
	if foundElsewhere {
		t.Error("edges detected in flat regions")
	}
}

func TestEdgeMapFlatFrame(t *testing.T) {
	f := video.NewFrame(20, 20)
	f.Fill(video.RGB(128, 128, 128))
	for i, e := range EdgeMap(f, 96) {
		if e {
			t.Fatalf("edge at %d in flat frame", i)
		}
	}
}

func TestDilate(t *testing.T) {
	edges := make([]bool, 25)
	edges[12] = true // centre of 5x5
	d := Dilate(edges, 5, 5, 1)
	count := 0
	for _, v := range d {
		if v {
			count++
		}
	}
	if count != 9 {
		t.Errorf("dilated count = %d, want 9", count)
	}
	d0 := Dilate(edges, 5, 5, 0)
	for i := range edges {
		if d0[i] != edges[i] {
			t.Fatal("radius-0 dilation changed the map")
		}
	}
	// Corner handling.
	corner := make([]bool, 25)
	corner[0] = true
	dc := Dilate(corner, 5, 5, 1)
	count = 0
	for _, v := range dc {
		if v {
			count++
		}
	}
	if count != 4 {
		t.Errorf("corner dilation count = %d, want 4", count)
	}
}

func TestECRIdenticalFrames(t *testing.T) {
	f := vtest.TexturedCanvas(80, 60, 1)
	e := EdgeMap(f, 96)
	ecr, _, _ := ECR(e, e, 80, 60, 2)
	if ecr != 0 {
		t.Errorf("ECR of identical maps = %v, want 0", ecr)
	}
}

func TestECRDisjointEdges(t *testing.T) {
	// Two edge maps with edges in opposite corners: ECR = 1.
	a := make([]bool, 400)
	b := make([]bool, 400)
	a[0] = true
	b[399] = true
	ecr, pc, cc := ECR(a, b, 20, 20, 1)
	if ecr != 1 {
		t.Errorf("ECR = %v, want 1", ecr)
	}
	if pc != 1 || cc != 1 {
		t.Errorf("counts = %d,%d, want 1,1", pc, cc)
	}
}

func TestDetectHardCut(t *testing.T) {
	clip := vtest.TwoShotClip("cut", 6, 7, 8, 16)
	d, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := d.Detect(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 1 || bounds[0] != 8 {
		t.Errorf("bounds = %v, want [8]", bounds)
	}
}

func TestDetectStaticNoBoundary(t *testing.T) {
	canvas := vtest.TexturedCanvas(400, 120, 8)
	clip := video.NewClip("static", 3)
	clip.Append(vtest.PanClip(canvas, 50, 0, 10, 160, 120)...)
	d, _ := New(DefaultConfig())
	bounds, err := d.Detect(clip)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 0 {
		t.Errorf("static clip produced bounds %v", bounds)
	}
}

func TestSeriesLength(t *testing.T) {
	clip := vtest.TwoShotClip("cut", 9, 10, 4, 9)
	d, _ := New(DefaultConfig())
	s := d.Series(clip)
	if len(s) != 8 {
		t.Errorf("series length = %d, want 8", len(s))
	}
}

func TestDetectRejectsInvalidClip(t *testing.T) {
	d, _ := New(DefaultConfig())
	if _, err := d.Detect(video.NewClip("empty", 3)); err == nil {
		t.Error("empty clip accepted")
	}
}

func TestName(t *testing.T) {
	d, _ := New(DefaultConfig())
	if d.Name() != "edge-change-ratio" {
		t.Errorf("Name = %q", d.Name())
	}
}
