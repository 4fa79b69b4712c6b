// Differential and cancellation tests for the parallel frame-analysis
// ingest pipeline. External test package so it can drive the real
// synthetic corpus from internal/experiments (which itself imports
// core) without an import cycle.
package core_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"videodb/internal/core"
	"videodb/internal/experiments"
	"videodb/internal/video"
)

// table5Clips synthesizes the paper's Table 5 corpus at a small scale.
func table5Clips(t *testing.T, scale float64) []*video.Clip {
	t.Helper()
	defs := experiments.Table5Corpus()
	clips := make([]*video.Clip, 0, len(defs))
	for _, d := range defs {
		clip, _, err := d.Build(scale)
		if err != nil {
			t.Fatalf("synthesizing %q: %v", d.Name, err)
		}
		clips = append(clips, clip)
	}
	return clips
}

func ingestAt(t *testing.T, clips []*video.Clip, workers int) *core.Database {
	t.Helper()
	db, err := core.Open(core.DefaultOptions(), core.WithParallelism(workers))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.IngestAll(clips); err != nil {
		t.Fatalf("ingest (workers=%d): %v", workers, err)
	}
	return db
}

// TestParallelIngestMatchesSerial is the pipeline's correctness
// contract: per-frame analysis is pure and the pairwise three-stage
// detector consumes features in frame order, so a parallel ingest must
// be bit-identical to the serial one — same shot boundaries, same
// stage attribution, same VarBA/VarOA down to the last float bit.
func TestParallelIngestMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes the Table 5 corpus; skipped with -short")
	}
	clips := table5Clips(t, 0.05)
	serial := ingestAt(t, clips, 1)
	for _, workers := range []int{0, 3} { // 0 = GOMAXPROCS
		parallel := ingestAt(t, clips, workers)
		for _, name := range serial.Clips() {
			want, _ := serial.Clip(name)
			got, ok := parallel.Clip(name)
			if !ok {
				t.Fatalf("workers=%d: clip %q missing", workers, name)
			}
			if got.Stats != want.Stats {
				t.Errorf("workers=%d %q: stats %+v, want %+v", workers, name, got.Stats, want.Stats)
			}
			if len(got.Shots) != len(want.Shots) {
				t.Fatalf("workers=%d %q: %d shots, want %d", workers, name, len(got.Shots), len(want.Shots))
			}
			for i := range want.Shots {
				w, g := want.Shots[i], got.Shots[i]
				if g.Shot != w.Shot {
					t.Errorf("workers=%d %q shot %d: bounds %+v, want %+v", workers, name, i, g.Shot, w.Shot)
				}
				if g.Feature.VarBA != w.Feature.VarBA || g.Feature.VarOA != w.Feature.VarOA {
					t.Errorf("workers=%d %q shot %d: VarBA/VarOA %v/%v, want %v/%v",
						workers, name, i, g.Feature.VarBA, g.Feature.VarOA, w.Feature.VarBA, w.Feature.VarOA)
				}
				if g.RepFrame != w.RepFrame {
					t.Errorf("workers=%d %q shot %d: rep frame %d, want %d", workers, name, i, g.RepFrame, w.RepFrame)
				}
			}
			if got.Tree.Height() != want.Tree.Height() {
				t.Errorf("workers=%d %q: tree height %d, want %d", workers, name, got.Tree.Height(), want.Tree.Height())
			}
		}
		if got, want := parallel.ShotCount(), serial.ShotCount(); got != want {
			t.Errorf("workers=%d: %d indexed shots, want %d", workers, got, want)
		}
	}
}

// TestIngestRecordsPipelineStats pins the per-phase accounting the
// server's videodb_ingest_phase_seconds_total metric is built from.
func TestIngestRecordsPipelineStats(t *testing.T) {
	clips := table5Clips(t, 0.02)
	db := ingestAt(t, clips[:1], 2)
	rec, _ := db.Clip(clips[0].Name)
	st := rec.Pipeline
	if st.Workers != 2 {
		t.Errorf("pipeline workers = %d, want 2", st.Workers)
	}
	if st.AnalyzeSeconds <= 0 {
		t.Errorf("analyze phase unrecorded: %+v", st)
	}
	if st.DetectSeconds < 0 || st.DetectSeconds > st.AnalyzeSeconds {
		t.Errorf("detect share %v outside [0, analyze=%v]", st.DetectSeconds, st.AnalyzeSeconds)
	}
	if st.TreeSeconds < 0 || st.IndexSeconds < 0 {
		t.Errorf("negative phase timing: %+v", st)
	}
}

// TestIngestCancellationLeaksNoGoroutines drives the pipeline's
// shutdown path under -race: a context cancelled mid-analysis must
// surface ctx.Err(), leave the database without the half-ingested
// clip, and wind down every worker goroutine.
func TestIngestCancellationLeaksNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesizes a corpus clip; skipped with -short")
	}
	clip, _, err := experiments.Table5Corpus()[0].Build(0.25)
	if err != nil {
		t.Fatal(err)
	}
	db, err := core.Open(core.DefaultOptions(), core.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// Sweep cancellation points from "before the first frame" to "well
	// into the fan-out" so the workers and the ordered consumer each get
	// interrupted at least once.
	for _, delay := range []time.Duration{0, 200 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), delay)
		_, err := db.IngestContext(ctx, clip)
		cancel()
		if err == nil {
			// The clip finished before the deadline: valid, but then it
			// must be fully present. Remove it and try a tighter race.
			if _, ok := db.Clip(clip.Name); !ok {
				t.Fatalf("delay %v: ingest reported success but clip missing", delay)
			}
			if err := db.Remove(clip.Name); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v, want context error", delay, err)
		}
		if _, ok := db.Clip(clip.Name); ok {
			t.Fatalf("delay %v: cancelled ingest left a partial clip behind", delay)
		}
	}

	// Goroutines wind down asynchronously after IngestContext returns
	// (workers may still be draining when the consumer bails); poll
	// briefly instead of asserting an instantaneous count.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after cancellation sweep", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
