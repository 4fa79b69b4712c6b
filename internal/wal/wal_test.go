package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"videodb/internal/fsx"
)

// journalPath makes a scratch journal path.
func journalPath(t testing.TB) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "db.wal")
}

// appendN writes n records with deterministic payloads and closes.
func appendN(t testing.TB, path string, n int) {
	t.Helper()
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		op := OpIngest
		if i%3 == 2 {
			op = OpDelete
		}
		if err := w.Append(op, testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// testPayload is record i's deterministic body, varying in size so
// frames land at irregular offsets.
func testPayload(i int) []byte {
	return bytes.Repeat([]byte{byte('a' + i%26)}, 5+i*7%40)
}

// collect replays the file at path into a slice.
func collect(t testing.TB, path string) ([]Record, ReplayResult) {
	t.Helper()
	var recs []Record
	res, err := recoverFile(path, func(r Record) error {
		recs = append(recs, Record{Op: r.Op, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, res
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := journalPath(t)
	appendN(t, path, 7)
	recs, res := collect(t, path)
	if res.Damaged {
		t.Fatalf("clean journal reported damaged: %+v", res)
	}
	if len(recs) != 7 || res.Records != 7 {
		t.Fatalf("replayed %d records, want 7", len(recs))
	}
	for i, r := range recs {
		wantOp := OpIngest
		if i%3 == 2 {
			wantOp = OpDelete
		}
		if r.Op != wantOp || !bytes.Equal(r.Data, testPayload(i)) {
			t.Errorf("record %d mismatch: op=%d len=%d", i, r.Op, len(r.Data))
		}
	}
}

func TestReplayEmptyAndMissing(t *testing.T) {
	recs, res := collect(t, journalPath(t)) // missing file
	if len(recs) != 0 || res.Records != 0 || res.Damaged {
		t.Errorf("missing journal: %+v", res)
	}
	res2, err := Replay(bytes.NewReader(nil), nil)
	if err != nil || res2.Damaged || res2.Records != 0 {
		t.Errorf("empty journal: %+v, %v", res2, err)
	}
}

func TestOpenWriterRejectsForeignFile(t *testing.T) {
	path := journalPath(t)
	if err := os.WriteFile(path, []byte("definitely not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWriter(path, PolicyNone, 0); err == nil {
		t.Fatal("foreign file opened as journal")
	}
}

func TestReopenAppendsAfterExistingRecords(t *testing.T) {
	path := journalPath(t)
	appendN(t, path, 3)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpDelete, []byte("later")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 4 {
		t.Fatalf("after reopen: %d records, damaged=%v", len(recs), res.Damaged)
	}
	if string(recs[3].Data) != "later" {
		t.Errorf("appended record lost: %q", recs[3].Data)
	}
}

func TestRotateEmptiesJournal(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := w.Append(OpIngest, testPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RotateTo(w.Size()); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Bytes != headerSize || st.Rotations != 1 {
		t.Errorf("after rotate: bytes=%d rotations=%d", st.Bytes, st.Rotations)
	}
	if st.Records != 4 {
		t.Errorf("lifetime record counter reset by rotate: %d", st.Records)
	}
	// Post-rotation appends land in the fresh journal.
	if err := w.Append(OpDelete, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 1 || string(recs[0].Data) != "fresh" {
		t.Fatalf("post-rotation journal wrong: %d recs, damaged=%v", len(recs), res.Damaged)
	}
}

// RotateTo discards only the prefix below the cut: records appended
// after a snapshot's cut point survive the rotation and replay, along
// with anything appended later.
func TestRotateToPreservesTail(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{"a", "b"} {
		if err := w.Append(OpIngest, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	cut := w.Size()
	for _, d := range []string{"c", "d"} {
		if err := w.Append(OpIngest, []byte(d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.RotateTo(cut); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Rotations != 1 {
		t.Errorf("rotations = %d, want 1", st.Rotations)
	}
	// The writer keeps appending to the rotated journal.
	if err := w.Append(OpDelete, []byte("e")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 3 {
		t.Fatalf("after RotateTo: %d records, damaged=%v (%s)", len(recs), res.Damaged, res.Reason)
	}
	for i, want := range []string{"c", "d", "e"} {
		if string(recs[i].Data) != want {
			t.Errorf("record %d = %q, want %q", i, recs[i].Data, want)
		}
	}
}

// tailsAt reads, for every position in ps, the journal bytes from it
// to the end.
func tailsAt(t *testing.T, w *Writer, ps []int64) [][]byte {
	t.Helper()
	out := make([][]byte, len(ps))
	for i, p := range ps {
		data, _, err := w.TailFrom(p, 1<<20)
		if err != nil {
			t.Fatalf("TailFrom(%d): %v", p, err)
		}
		out[i] = data
	}
	return out
}

// A position only grows for the life of a writer: RotateTo moves no
// position, in either of its branches, and TailFrom serves every
// record boundary at or above the cut with exactly the bytes it held
// before; a boundary below the cut was flushed away and is ErrBadCut.
// Each case rotates twice, so the second cut lies past a prefix the
// first already discarded.
func TestRotateKeepsPositions(t *testing.T) {
	for _, tc := range []struct {
		name string
		keep int // records appended after each cut
	}{{"empty tail", 0}, {"tail", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := OpenWriter(journalPath(t), PolicyAlways, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			bounds := []int64{w.Size()}
			appendOne := func(i int) {
				t.Helper()
				if err := w.Append(OpIngest, testPayload(i)); err != nil {
					t.Fatal(err)
				}
				if got, last := w.Size(), bounds[len(bounds)-1]; got <= last {
					t.Fatalf("Size %d after an append, was %d", got, last)
				}
				bounds = append(bounds, w.Size())
			}
			next := 0
			for round := 0; round < 2; round++ {
				for i := 0; i < 3; i++ {
					appendOne(next)
					next++
				}
				cut := w.Size()
				for i := 0; i < tc.keep; i++ {
					appendOne(next)
					next++
				}
				size := w.Size()
				var kept []int64
				for _, p := range bounds {
					if p >= cut {
						kept = append(kept, p)
					}
				}
				before := tailsAt(t, w, kept)
				if err := w.RotateTo(cut); err != nil {
					t.Fatal(err)
				}
				if got := w.Size(); got != size {
					t.Fatalf("round %d: Size %d after RotateTo, was %d", round, got, size)
				}
				if st := w.Stats(); st.Bytes != headerSize+size-cut {
					t.Fatalf("round %d: Stats.Bytes %d, want the file length %d", round, st.Bytes, headerSize+size-cut)
				}
				after := tailsAt(t, w, kept)
				for i, p := range kept {
					if !bytes.Equal(after[i], before[i]) {
						t.Fatalf("round %d: TailFrom(%d) changed across RotateTo(%d)", round, p, cut)
					}
				}
				for _, p := range bounds {
					if p >= cut {
						continue
					}
					if _, got, err := w.TailFrom(p, 1<<20); !errors.Is(err, ErrBadCut) || got != size {
						t.Fatalf("round %d: TailFrom(%d) below cut %d = (size %d, %v), want ErrBadCut at %d",
							round, p, cut, got, err, size)
					}
				}
			}
			if _, _, err := w.TailFrom(w.Size()+1, 1<<20); !errors.Is(err, ErrBadCut) {
				t.Fatalf("TailFrom past the end: %v, want ErrBadCut", err)
			}
		})
	}
}

// A cut below what a writer already rotated away is stale — an older
// capture that lost a race to a newer flush — and RotateTo keeps every
// record it still holds.
func TestRotateStaleCutKeepsRecords(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpIngest, []byte("a")); err != nil {
		t.Fatal(err)
	}
	stale := w.Size()
	if err := w.Append(OpIngest, []byte("b")); err != nil {
		t.Fatal(err)
	}
	cut := w.Size()
	if err := w.Append(OpIngest, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := w.RotateTo(cut); err != nil {
		t.Fatal(err)
	}
	size := w.Size()
	want, _, err := w.TailFrom(cut, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.RotateTo(stale); err != nil {
		t.Fatal(err)
	}
	got, _, err := w.TailFrom(cut, 1<<20)
	if err != nil || !bytes.Equal(got, want) || w.Size() != size {
		t.Fatalf("after a stale RotateTo: TailFrom(%d) = %q, %v; Size %d, want %d", cut, got, err, w.Size(), size)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 1 || string(recs[0].Data) != "c" {
		t.Fatalf("after a stale RotateTo: %d records, damaged=%v", len(recs), res.Damaged)
	}
}

// Gen names one writer's position space: a rotation keeps it, a
// reopen — a restarted primary — changes it.
func TestRotateKeepsGen(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	gen := w.Gen()
	if err := w.Append(OpIngest, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := w.RotateTo(w.Size()); err != nil {
		t.Fatal(err)
	}
	if got := w.Gen(); got != gen {
		t.Fatalf("Gen %q after RotateTo, was %q", got, gen)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err = OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Gen() == gen {
		t.Fatalf("reopened writer kept Gen %q", gen)
	}
}

// A pathless writer cannot replace its file, so RotateTo rotates it
// only with no tail to keep; with a tail it refuses without touching
// the journal or going sticky.
func TestRotateToPathlessRefusesTail(t *testing.T) {
	path := journalPath(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(fsx.NewFaultFile(f), 0, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpIngest, []byte("captured")); err != nil {
		t.Fatal(err)
	}
	cut := w.Size()
	if err := w.Append(OpIngest, []byte("kept")); err != nil {
		t.Fatal(err)
	}
	if err := w.RotateTo(cut); err == nil {
		t.Fatal("pathless RotateTo kept a tail")
	}
	if w.Err() != nil {
		t.Fatalf("refused rotation went sticky: %v", w.Err())
	}
	if err := w.RotateTo(w.Size()); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpDelete, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 1 || string(recs[0].Data) != "fresh" {
		t.Fatalf("after pathless RotateTo: %d records, damaged=%v", len(recs), res.Damaged)
	}
}

// A cut beyond the journal's size is a caller bug, reported without
// touching the file.
func TestRotateToRejectsFutureCut(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(OpIngest, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.RotateTo(w.Size() + 1); err == nil {
		t.Fatal("cut beyond size accepted")
	}
	if w.Err() != nil {
		t.Fatalf("rejected cut went sticky: %v", w.Err())
	}
}

// A failed append is rolled back on disk: the rejected record's bytes
// are truncated away, so a mutation the client was told failed can
// never resurface in a replay. The writer still refuses further
// appends (the device is suspect).
func TestFailedAppendRolledBack(t *testing.T) {
	path := journalPath(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fault := fsx.NewFaultFile(f)
	w, err := NewWriter(fault, 0, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpIngest, []byte("good")); err != nil {
		t.Fatal(err)
	}
	before := w.Size()
	fault.FailWriteAfter = fault.Written + 10 // dies mid-next-record
	if err := w.Append(OpIngest, bytes.Repeat([]byte("x"), 64)); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("mid-record failure: %v", err)
	}
	fault.FailWriteAfter = -1
	if err := w.Append(OpIngest, []byte("after")); err == nil {
		t.Fatal("append accepted after a torn write")
	}
	if st := w.Stats(); st.Records != 1 {
		t.Errorf("records stat = %d, want 1", st.Records)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != before {
		t.Fatalf("journal is %d bytes after rollback, want %d", fi.Size(), before)
	}
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 1 || string(recs[0].Data) != "good" {
		t.Fatalf("after rollback: %d records, damaged=%v", len(recs), res.Damaged)
	}
}

// Same for a failed fsync under PolicyAlways: the record bytes reached
// the file, but the client was told the mutation failed, so the
// rollback truncation must remove them before any replay can see them.
func TestFailedFsyncRolledBack(t *testing.T) {
	path := journalPath(t)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fault := fsx.NewFaultFile(f)
	w, err := NewWriter(fault, 0, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpIngest, []byte("first")); err != nil {
		t.Fatal(err)
	}
	before := w.Size()
	fault.FailNextSyncs = 1
	if err := w.Append(OpIngest, []byte("phantom")); !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("failed fsync surfaced as %v", err)
	}
	if w.Err() == nil {
		t.Error("failed fsync did not go sticky")
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != before {
		t.Fatalf("journal is %d bytes after rollback, want %d", fi.Size(), before)
	}
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != 1 || string(recs[0].Data) != "first" {
		t.Fatalf("after fsync rollback: %d records, damaged=%v", len(recs), res.Damaged)
	}
}

func TestStatsCountFsyncs(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	base := w.Stats().Fsyncs
	for i := 0; i < 3; i++ {
		if err := w.Append(OpIngest, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Fsyncs != base+3 {
		t.Errorf("fsyncs = %d, want %d (one per append under PolicyAlways)", st.Fsyncs, base+3)
	}
	if st.FsyncSeconds < 0 {
		t.Errorf("negative fsync seconds %g", st.FsyncSeconds)
	}
	w.Close()
}

func TestPolicyIntervalBackgroundFlush(t *testing.T) {
	path := journalPath(t)
	w, err := OpenWriter(path, PolicyInterval, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	base := w.Stats().Fsyncs
	if err := w.Append(OpIngest, []byte("interval")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.Stats().Fsyncs == base {
		if time.Now().After(deadline) {
			t.Fatal("background flusher never synced")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]Policy{"always": PolicyAlways, "interval": PolicyInterval, "none": PolicyNone} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Errorf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("Policy.String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
}

// fault opens a real temp file and wraps it in a FaultFile-backed
// writer.
func faultWriter(t testing.TB, ff func(*fsx.FaultFile)) (*Writer, *fsx.FaultFile) {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "w.wal"))
	if err != nil {
		t.Fatal(err)
	}
	fault := fsx.NewFaultFile(f)
	if ff != nil {
		ff(fault)
	}
	w, err := NewWriter(fault, 0, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	return w, fault
}

func TestAppendFailureGoesSticky(t *testing.T) {
	w, fault := faultWriter(t, nil)
	if err := w.Append(OpIngest, []byte("good")); err != nil {
		t.Fatal(err)
	}
	fault.FailWriteAfter = fault.Written + 10 // dies mid-next-record
	err := w.Append(OpIngest, bytes.Repeat([]byte("x"), 64))
	if !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("mid-record failure: %v", err)
	}
	// Every later append is refused with the sticky error: the tail is
	// torn and blindly appending after it would corrupt the journal.
	fault.FailWriteAfter = -1
	if err := w.Append(OpIngest, []byte("after")); err == nil {
		t.Fatal("append accepted after a torn write")
	}
	if w.Err() == nil {
		t.Error("sticky error not reported")
	}
}

func TestShortWriteBecomesError(t *testing.T) {
	w, fault := faultWriter(t, nil)
	fault.ShortWriteAt = headerSize + 5
	err := w.Append(OpIngest, bytes.Repeat([]byte("y"), 32))
	if !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("short write surfaced as %v, want ErrShortWrite", err)
	}
	if w.Err() == nil {
		t.Error("short write did not go sticky")
	}
}

func TestFsyncFailureGoesSticky(t *testing.T) {
	w, fault := faultWriter(t, nil)
	fault.FailSync = true
	err := w.Append(OpIngest, []byte("z"))
	if !errors.Is(err, fsx.ErrInjected) {
		t.Fatalf("failed fsync surfaced as %v", err)
	}
	if err := w.Append(OpIngest, []byte("z2")); err == nil {
		t.Fatal("append accepted after failed fsync")
	}
}

// TestTornTailRecoveredThenWritable is the full crash-reopen cycle: a
// writer dies mid-record, recovery truncates the torn tail, a fresh
// writer appends, and everything replays.
func TestTornTailRecoveredThenWritable(t *testing.T) {
	path := journalPath(t)
	appendN(t, path, 5)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the file mid-way through the last record.
	if err := os.WriteFile(path, clean[:len(clean)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if !res.Damaged || len(recs) != 4 {
		t.Fatalf("torn tail: %d records, damaged=%v (%s)", len(recs), res.Damaged, res.Reason)
	}
	if res.TruncatedBytes() <= 0 {
		t.Errorf("truncated bytes = %d", res.TruncatedBytes())
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != res.ValidBytes {
		t.Errorf("file not truncated to valid prefix: %d vs %d", st.Size(), res.ValidBytes)
	}
	// The journal is append-ready again.
	w, err := OpenWriter(path, PolicyAlways, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(OpDelete, []byte("post-crash")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, res = collect(t, path)
	if res.Damaged || len(recs) != 5 || string(recs[4].Data) != "post-crash" {
		t.Fatalf("post-recovery journal wrong: %d recs, damaged=%v", len(recs), res.Damaged)
	}
}

func TestApplyErrorAbortsReplay(t *testing.T) {
	path := journalPath(t)
	appendN(t, path, 3)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	boom := errors.New("apply boom")
	n := 0
	_, err = Replay(f, func(Record) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("apply error lost: %v", err)
	}
}

func TestReplayStopsAtImplausibleLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(Magic)
	buf.Write([]byte{Version, 0})
	// A frame header claiming a multi-gigabyte record.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	res, err := Replay(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Damaged || res.Records != 0 || res.ValidBytes != headerSize {
		t.Errorf("oversize length: %+v", res)
	}
}

// v1Journal is a hand-built journal of the previous format version: an
// intact header followed by one well-framed record, the way a gob-era
// file looks to this build.
func v1Journal() []byte {
	payload := []byte{recordVersion, OpIngest, 'g', 'o', 'b'}
	b := append([]byte(Magic), 1, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// A journal written by another format version holds acknowledged
// records this build cannot read. That is not a torn tail: Replay,
// recovery and OpenWriter must refuse it with ErrVersion, and recovery
// must not truncate a byte of it.
func TestOldVersionJournalIsRefusedNotRecovered(t *testing.T) {
	old := v1Journal()
	applied := 0
	count := func(Record) error { applied++; return nil }

	if res, err := Replay(bytes.NewReader(old), count); !errors.Is(err, ErrVersion) {
		t.Fatalf("Replay of a v1 journal: res %+v, err %v; want ErrVersion", res, err)
	}
	path := journalPath(t)
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	if res, err := recoverFile(path, count); !errors.Is(err, ErrVersion) {
		t.Fatalf("recovery of a v1 journal: res %+v, err %v; want ErrVersion", res, err)
	}
	if _, err := OpenWriter(path, PolicyAlways, 0); !errors.Is(err, ErrVersion) {
		t.Fatalf("OpenWriter on a v1 journal: %v; want ErrVersion", err)
	}
	if applied != 0 {
		t.Fatalf("%d records of a v1 journal were applied", applied)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, old) {
		t.Fatalf("refused journal was modified: %d bytes, was %d", len(after), len(old))
	}
}

func ExampleReplay() {
	var buf bytes.Buffer
	f := nopFile{&buf}
	w, _ := NewWriter(f, 0, PolicyNone, 0)
	w.Append(OpIngest, []byte("clip-a"))
	w.Append(OpDelete, []byte("clip-a"))
	res, _ := Replay(bytes.NewReader(buf.Bytes()), func(r Record) error {
		fmt.Printf("op=%d data=%s\n", r.Op, r.Data)
		return nil
	})
	fmt.Printf("records=%d damaged=%v\n", res.Records, res.Damaged)
	// Output:
	// op=1 data=clip-a
	// op=2 data=clip-a
	// records=2 damaged=false
}

// nopFile adapts a bytes.Buffer to the File interface for the example.
type nopFile struct{ b *bytes.Buffer }

func (n nopFile) Write(p []byte) (int, error)    { return n.b.Write(p) }
func (n nopFile) Seek(int64, int) (int64, error) { return 0, nil }
func (n nopFile) Sync() error                    { return nil }
func (n nopFile) Truncate(int64) error           { return nil }
func (n nopFile) Close() error                   { return nil }
func (n nopFile) ReadAt(p []byte, off int64) (int, error) {
	b := n.b.Bytes()
	if off >= int64(len(b)) {
		return 0, io.EOF
	}
	return copy(p, b[off:]), nil
}

// TestRecoverReportsWholeCut: damage mid-journal cuts every byte after
// the last valid record, and TruncatedBytes must count all of them —
// not just the bytes the replay read before it stopped.
func TestRecoverReportsWholeCut(t *testing.T) {
	path := journalPath(t)
	appendN(t, path, 4)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of record 2 of 4: its CRC no longer matches.
	second := int64(headerSize + frameHeaderSize + len(testPayload(0)) + 2)
	raw[second+frameHeaderSize+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if !res.Damaged || len(recs) != 1 || res.ValidBytes != second {
		t.Fatalf("recovery %+v after %d records, want damage after 1 record at %d", res, len(recs), second)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if cut := int64(len(raw)) - st.Size(); res.TruncatedBytes() != cut || res.TotalBytes != int64(len(raw)) {
		t.Fatalf("cut %d bytes of %d, result reports %d truncated of %d", cut, len(raw), res.TruncatedBytes(), res.TotalBytes)
	}
}
