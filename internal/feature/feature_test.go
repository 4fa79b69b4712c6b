package feature

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"videodb/internal/video"
)

func solidFrame(w, h int, p video.Pixel) *video.Frame {
	f := video.NewFrame(w, h)
	f.Fill(p)
	return f
}

func TestAnalyzeSolidFrame(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	p := video.RGB(120, 80, 40)
	ff := a.Analyze(solidFrame(160, 120, p))
	if ff.SignBA != p {
		t.Errorf("SignBA = %v, want %v", ff.SignBA, p)
	}
	if ff.SignOA != p {
		t.Errorf("SignOA = %v, want %v", ff.SignOA, p)
	}
	if len(ff.Signature) != a.Geometry().L {
		t.Errorf("signature length %d, want %d", len(ff.Signature), a.Geometry().L)
	}
	for i, s := range ff.Signature {
		if s != p {
			t.Fatalf("signature[%d] = %v, want %v", i, s, p)
		}
	}
}

// TestSignsSeparateRegions: a frame whose background differs from its
// foreground must produce different BA and OA signs.
func TestSignsSeparateRegions(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	g := a.Geometry()
	f := video.NewFrame(160, 120)
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			if g.InFBA(x, y) {
				f.Set(x, y, video.RGB(200, 200, 200))
			} else {
				f.Set(x, y, video.RGB(20, 20, 20))
			}
		}
	}
	ff := a.Analyze(f)
	if ff.SignBA.R < 190 {
		t.Errorf("SignBA = %v, want bright", ff.SignBA)
	}
	if ff.SignOA.R > 30 {
		t.Errorf("SignOA = %v, want dark", ff.SignOA)
	}
}

func TestAnalyzeClip(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	c := video.NewClip("t", 3)
	c.Append(solidFrame(160, 120, video.RGB(10, 10, 10)),
		solidFrame(160, 120, video.RGB(200, 200, 200)))
	feats := a.AnalyzeClip(c)
	if len(feats) != 2 {
		t.Fatalf("got %d features, want 2", len(feats))
	}
	if feats[0].SignBA == feats[1].SignBA {
		t.Error("distinct frames produced identical signs")
	}
}

func featWithBA(r, g, b uint8) FrameFeature {
	return FrameFeature{SignBA: video.RGB(r, g, b), SignOA: video.RGB(r, g, b)}
}

func TestShotFeatureConstantShot(t *testing.T) {
	feats := []FrameFeature{featWithBA(100, 100, 100), featWithBA(100, 100, 100), featWithBA(100, 100, 100)}
	sf := ShotFeatureFromFrames(feats, 0, 2)
	if sf.VarBA != 0 || sf.VarOA != 0 {
		t.Errorf("constant shot has VarBA=%v VarOA=%v, want 0", sf.VarBA, sf.VarOA)
	}
	if sf.Dv() != 0 {
		t.Errorf("Dv = %v, want 0", sf.Dv())
	}
	for i := 0; i < 3; i++ {
		if sf.MeanBA[i] != 100 {
			t.Errorf("MeanBA[%d] = %v, want 100", i, sf.MeanBA[i])
		}
	}
}

func TestShotFeatureKnownVariance(t *testing.T) {
	// Signs alternate between 90 and 110 on every channel over 4
	// frames: mean 100, sum of squared deviations per channel = 400,
	// sample variance = 400/3 per channel; averaged over channels the
	// same.
	feats := []FrameFeature{featWithBA(90, 90, 90), featWithBA(110, 110, 110), featWithBA(90, 90, 90), featWithBA(110, 110, 110)}
	sf := ShotFeatureFromFrames(feats, 0, 3)
	want := 400.0 / 3.0
	if math.Abs(sf.VarBA-want) > 1e-9 {
		t.Errorf("VarBA = %v, want %v", sf.VarBA, want)
	}
}

func TestShotFeatureSingleFrame(t *testing.T) {
	feats := []FrameFeature{featWithBA(50, 60, 70)}
	sf := ShotFeatureFromFrames(feats, 0, 0)
	if sf.VarBA != 0 {
		t.Errorf("single-frame shot variance = %v, want 0", sf.VarBA)
	}
	if sf.Frames() != 1 {
		t.Errorf("Frames() = %d, want 1", sf.Frames())
	}
}

func TestShotFeatureSubRange(t *testing.T) {
	feats := []FrameFeature{
		featWithBA(0, 0, 0),
		featWithBA(100, 100, 100),
		featWithBA(100, 100, 100),
		featWithBA(255, 255, 255),
	}
	sf := ShotFeatureFromFrames(feats, 1, 2)
	if sf.VarBA != 0 {
		t.Errorf("sub-range variance = %v, want 0", sf.VarBA)
	}
	if sf.Start != 1 || sf.End != 2 {
		t.Errorf("range = [%d,%d], want [1,2]", sf.Start, sf.End)
	}
}

func TestShotFeaturePanicsOnBadRange(t *testing.T) {
	feats := []FrameFeature{featWithBA(0, 0, 0)}
	for _, r := range [][2]int{{-1, 0}, {0, 1}, {1, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("range %v did not panic", r)
				}
			}()
			ShotFeatureFromFrames(feats, r[0], r[1])
		}()
	}
}

func TestDvOrdering(t *testing.T) {
	// High background change, low object change → positive Dv;
	// the reverse → negative Dv.
	a := ShotFeature{VarBA: 25, VarOA: 4}
	b := ShotFeature{VarBA: 4, VarOA: 25}
	if a.Dv() != 3 {
		t.Errorf("Dv = %v, want 3", a.Dv())
	}
	if b.Dv() != -3 {
		t.Errorf("Dv = %v, want -3", b.Dv())
	}
}

// TestLongestSignRunTable2 reproduces the paper's Table 2: a 20-frame
// shot with sign runs of lengths 6, 2, 4, 2, 6; the first 6-run wins the
// tie and frame 1 (index 0) is the representative.
func TestLongestSignRunTable2(t *testing.T) {
	mk := func(r, g, b uint8, n int) []FrameFeature {
		out := make([]FrameFeature, n)
		for i := range out {
			out[i] = featWithBA(r, g, b)
		}
		return out
	}
	var feats []FrameFeature
	feats = append(feats, mk(219, 152, 142, 6)...)
	feats = append(feats, mk(226, 164, 172, 2)...)
	feats = append(feats, mk(213, 149, 134, 4)...)
	feats = append(feats, mk(200, 137, 123, 2)...)
	feats = append(feats, mk(228, 160, 149, 6)...)
	if len(feats) != 20 {
		t.Fatalf("table has %d frames, want 20", len(feats))
	}
	frame, length := LongestSignRun(feats, 0, 19)
	if frame != 0 {
		t.Errorf("representative frame index = %d, want 0 (paper's frame No. 1)", frame)
	}
	if length != 6 {
		t.Errorf("run length = %d, want 6", length)
	}
}

func TestLongestSignRunSubRange(t *testing.T) {
	var feats []FrameFeature
	for i := 0; i < 5; i++ {
		feats = append(feats, featWithBA(uint8(i), 0, 0))
	}
	feats = append(feats, featWithBA(9, 9, 9), featWithBA(9, 9, 9), featWithBA(9, 9, 9))
	frame, length := LongestSignRun(feats, 2, 7)
	if frame != 5 || length != 3 {
		t.Errorf("run = (%d,%d), want (5,3)", frame, length)
	}
}

// TestAnalyzeAllocatesOnlySignature pins Analyze's allocations to the
// returned Signature: the working plane comes from the pool and the
// sampling maps from the geometry.
func TestAnalyzeAllocatesOnlySignature(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled-scratch allocation counts are not meaningful under the race detector")
	}
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := solidFrame(160, 120, video.RGB(100, 90, 80))
	if n := testing.AllocsPerRun(100, func() { a.Analyze(f) }); n != 1 {
		t.Errorf("Analyze allocates %v times per frame, want 1 (the signature)", n)
	}
}

// TestAnalyzeConcurrent exercises the scratch pool from many
// goroutines; run with -race to verify safety.
func TestAnalyzeConcurrent(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	f := video.NewFrame(160, 120)
	for i := range f.Pix {
		f.Pix[i] = video.RGB(uint8(i), uint8(i/2), uint8(i/3))
	}
	want := a.Analyze(f)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got := a.Analyze(f)
				if got.SignBA != want.SignBA || got.SignOA != want.SignOA {
					t.Errorf("concurrent analyze diverged: %v vs %v", got.SignBA, want.SignBA)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnalyzeClipStreamYieldsInOrder pins the ordered fan-in contract
// the sequential shot detector depends on: whatever the worker count,
// yield sees frame 0, 1, 2, ... exactly once each, with features
// identical to the serial path (signature vectors included).
func TestAnalyzeClipStreamYieldsInOrder(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	c := video.NewClip("stream", 3)
	for i := 0; i < 23; i++ {
		f := video.NewFrame(160, 120)
		for j := range f.Pix {
			f.Pix[j] = video.RGB(uint8(i*29+j), uint8(j/5), uint8(i*3))
		}
		c.Append(f)
	}
	serial := a.AnalyzeClip(c)
	for _, workers := range []int{1, 2, 7, 32} {
		next := 0
		err := a.AnalyzeClipStream(context.Background(), c, workers, func(i int, ff FrameFeature) {
			if i != next {
				t.Fatalf("workers=%d: yielded frame %d, want %d", workers, i, next)
			}
			next++
			if ff.SignBA != serial[i].SignBA || ff.SignOA != serial[i].SignOA {
				t.Fatalf("workers=%d frame %d: signs differ from serial", workers, i)
			}
			for j := range serial[i].Signature {
				if ff.Signature[j] != serial[i].Signature[j] {
					t.Fatalf("workers=%d frame %d: signature[%d] differs", workers, i, j)
				}
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if next != c.Len() {
			t.Fatalf("workers=%d: yielded %d frames, want %d", workers, next, c.Len())
		}
	}
}

// TestAnalyzeClipStreamCancel cancels mid-stream (from inside yield,
// the way the ingest pipeline's caller would) and verifies the stream
// stops with the context's error and winds its goroutines down.
func TestAnalyzeClipStreamCancel(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	c := video.NewClip("cancel", 3)
	for i := 0; i < 64; i++ {
		f := video.NewFrame(160, 120)
		c.Append(f)
	}
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		err := a.AnalyzeClipStream(ctx, c, workers, func(i int, ff FrameFeature) {
			seen++
			if seen == 5 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if seen >= c.Len() {
			t.Fatalf("workers=%d: stream ran to completion despite cancel", workers)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancelled streams", before, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAnalyzeClipParallelMatchesSerial(t *testing.T) {
	a, err := NewAnalyzer(160, 120)
	if err != nil {
		t.Fatal(err)
	}
	c := video.NewClip("par", 3)
	for i := 0; i < 12; i++ {
		f := video.NewFrame(160, 120)
		for j := range f.Pix {
			f.Pix[j] = video.RGB(uint8(i*17+j), uint8(j/3), uint8(i))
		}
		c.Append(f)
	}
	serial := a.AnalyzeClip(c)
	for _, workers := range []int{0, 1, 3, 16} {
		par := a.AnalyzeClipParallel(c, workers)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d features", workers, len(par))
		}
		for i := range serial {
			if par[i].SignBA != serial[i].SignBA || par[i].SignOA != serial[i].SignOA {
				t.Fatalf("workers=%d frame %d differs", workers, i)
			}
		}
	}
}
