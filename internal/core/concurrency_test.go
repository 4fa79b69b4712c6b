package core

import (
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"videodb/internal/synth"
	"videodb/internal/varindex"
	"videodb/internal/video"
)

// smallCorpusClip renders a short clip so the stress tests stay fast.
func smallCorpusClip(t testing.TB, name string, seed uint64) *video.Clip {
	t.Helper()
	spec, err := synth.BuildClip(synth.GenreDrama, synth.ClipParams{
		Name: name, Shots: 4, DurationSec: 20, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip, _, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	return clip
}

// TestConcurrentIngestRemoveQuerySave hammers the database from
// parallel goroutines mixing every public mutation and read: Ingest,
// Remove, Query, QueryByShot, Records, Save. Run with -race; the test
// asserts nothing beyond "no panic, no deadlock, consistent listings".
func TestConcurrentIngestRemoveQuerySave(t *testing.T) {
	db := openDB(t)
	stable := smallCorpusClip(t, "stable", 80)
	if _, err := db.Ingest(stable); err != nil {
		t.Fatal(err)
	}
	churn := make([]*video.Clip, 3)
	for i := range churn {
		churn[i] = smallCorpusClip(t, fmt.Sprintf("churn-%d", i), uint64(81+i))
	}

	const rounds = 8
	var writers, readers sync.WaitGroup
	// Writers: ingest and remove the churn clips over and over.
	for _, clip := range churn {
		writers.Add(1)
		go func(clip *video.Clip) {
			defer writers.Done()
			for r := 0; r < rounds; r++ {
				if _, err := db.Ingest(clip); err != nil && !errors.Is(err, ErrDuplicate) {
					t.Errorf("ingest %s: %v", clip.Name, err)
					return
				}
				if err := db.Remove(clip.Name); err != nil && !errors.Is(err, ErrNotFound) {
					t.Errorf("remove %s: %v", clip.Name, err)
					return
				}
			}
		}(clip)
	}
	// Readers: queries, listings and snapshots while the writers churn.
	stopReads := make(chan struct{})
	for i := 0; i < 3; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			q := varindex.Query{VarBA: 1, VarOA: 1}
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				if _, err := db.Query(q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if _, err := db.QueryByShot("stable", 0, 2); err != nil {
					t.Errorf("query by shot: %v", err)
					return
				}
				for _, rec := range db.Records() {
					if rec == nil || rec.Name == "" {
						t.Error("Records returned an invalid record")
						return
					}
				}
				if err := db.BeginSnapshot().WriteSegment(io.Discard, 0); err != nil {
					t.Errorf("snapshot: %v", err)
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stopReads)
	readers.Wait()

	if _, ok := db.Clip("stable"); !ok {
		t.Error("stable clip lost during churn")
	}
}

// TestIngestReservesNameBeforeAnalysis: a duplicate of an in-flight or
// committed name fails fast, and a failed analysis releases the
// reservation so the name can be reused.
func TestIngestReservation(t *testing.T) {
	db := openDB(t)
	clip := smallCorpusClip(t, "resv", 85)

	// A clip that fails validation (mismatched frame sizes) must release
	// its reservation.
	bad := video.NewClip("resv", 3)
	bad.Append(video.NewFrame(32, 24))
	bad.Append(video.NewFrame(16, 12))
	if _, err := db.Ingest(bad); err == nil {
		t.Fatal("invalid clip accepted")
	}
	if _, err := db.Ingest(clip); err != nil {
		t.Fatalf("name still reserved after failed ingest: %v", err)
	}

	// Concurrent ingests of the same name: exactly one wins.
	if err := db.Remove("resv"); err != nil {
		t.Fatal(err)
	}
	const racers = 4
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Ingest(clip)
		}(i)
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		if err == nil {
			won++
		} else if !errors.Is(err, ErrDuplicate) {
			t.Errorf("unexpected racer error: %v", err)
		}
	}
	if won != 1 {
		t.Errorf("%d concurrent ingests of one name succeeded, want exactly 1", won)
	}
}

func TestIngestDuplicateIsErrDuplicate(t *testing.T) {
	db := openDB(t)
	clip := smallCorpusClip(t, "dup-sentinel", 86)
	if _, err := db.Ingest(clip); err != nil {
		t.Fatal(err)
	}
	_, err := db.Ingest(clip)
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate ingest error = %v, want ErrDuplicate", err)
	}
	if err := db.Remove("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("remove of missing clip = %v, want ErrNotFound", err)
	}
}

// TestIngestAllJoinsEveryError: a batch with several failing clips
// reports all of them, not just the first one off a channel.
func TestIngestAllJoinsEveryError(t *testing.T) {
	db := openDB(t)
	good := smallCorpusClip(t, "batch-good", 87)
	bad1 := video.NewClip("batch-bad-1", 3) // no frames
	bad2 := video.NewClip("batch-bad-2", 0) // no frames, bad fps
	err := db.IngestAll([]*video.Clip{good, bad1, bad2})
	if err == nil {
		t.Fatal("batch with invalid clips reported no error")
	}
	for _, name := range []string{"batch-bad-1", "batch-bad-2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("joined error does not mention %s: %v", name, err)
		}
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("IngestAll error is not a joined error: %T", err)
	}
	if got := len(joined.Unwrap()); got != 2 {
		t.Errorf("joined error holds %d errors, want 2", got)
	}
	if _, ok := db.Clip("batch-good"); !ok {
		t.Error("good clip lost when siblings failed")
	}
}

// TestRecordsSingleLock: Records returns a consistent, sorted listing.
func TestRecords(t *testing.T) {
	db := openDB(t)
	for i := 0; i < 3; i++ {
		if _, err := db.Ingest(smallCorpusClip(t, fmt.Sprintf("rec-%c", 'c'-byte(i)), uint64(88+i))); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.Records()
	if len(recs) != 3 {
		t.Fatalf("Records returned %d clips, want 3", len(recs))
	}
	for i, want := range []string{"rec-a", "rec-b", "rec-c"} {
		if recs[i].Name != want {
			t.Errorf("Records[%d] = %q, want %q", i, recs[i].Name, want)
		}
	}
}
