package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// buildJournal writes K deterministic records and returns the file
// bytes plus each record's decoded form, in order.
func buildJournal(t testing.TB, k int) ([]byte, []Record) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.wal")
	appendN(t, path, k)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, res := collect(t, path)
	if res.Damaged || len(recs) != k {
		t.Fatalf("reference journal bad: %d recs, damaged=%v", len(recs), res.Damaged)
	}
	return raw, recs
}

// recoverBytes writes raw to a scratch file and runs recovery, returning
// the replayed records and the file's post-recovery size.
func recoverBytes(t testing.TB, dir string, raw []byte) ([]Record, ReplayResult, int64) {
	t.Helper()
	path := filepath.Join(dir, "x.wal")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []Record
	res, err := recoverFile(path, func(r Record) error {
		recs = append(recs, Record{Op: r.Op, Data: append([]byte(nil), r.Data...)})
		return nil
	})
	if err != nil {
		t.Fatalf("recover must never fail on corruption: %v", err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return recs, res, st.Size()
}

// assertPrefix checks the torture invariant: whatever recovery
// returned is exactly a prefix of the original mutation sequence.
func assertPrefix(t *testing.T, label string, got, want []Record) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: recovered %d records from a journal of %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Op != want[i].Op || !bytes.Equal(got[i].Data, want[i].Data) {
			t.Fatalf("%s: record %d corrupt after recovery", label, i)
		}
	}
}

// TestTortureTruncateEveryOffset cuts a K-mutation journal at every
// byte offset: recovery must never panic, never surface a corrupt
// record, always return the longest valid prefix, and leave the file
// truncated to exactly that prefix so appends can resume.
func TestTortureTruncateEveryOffset(t *testing.T) {
	const k = 6
	raw, want := buildJournal(t, k)
	dir := t.TempDir()
	// Record boundaries: offsets at which a cut loses nothing.
	boundaries := map[int64]int{headerSize: 0}
	off := int64(headerSize)
	for i, r := range want {
		off += frameHeaderSize + 2 + int64(len(r.Data))
		boundaries[off] = i + 1
	}
	if off != int64(len(raw)) {
		t.Fatalf("frame arithmetic wrong: %d vs %d", off, len(raw))
	}

	for cut := 0; cut <= len(raw); cut++ {
		got, res, size := recoverBytes(t, dir, raw[:cut])
		assertPrefix(t, "truncate", got, want)
		if size != res.ValidBytes {
			t.Fatalf("cut %d: file %d bytes after recovery, valid prefix %d", cut, size, res.ValidBytes)
		}
		// A cut exactly on a record boundary loses nothing before it; any
		// other cut loses only the record it lands in.
		switch n, ok := boundaries[int64(cut)]; {
		case cut == 0: // no file content at all: a clean empty journal
			if len(got) != 0 || res.Damaged {
				t.Fatalf("cut 0: %d records, damaged=%v", len(got), res.Damaged)
			}
		case ok:
			if len(got) != n || res.Damaged {
				t.Fatalf("cut %d on boundary: %d records (want %d), damaged=%v", cut, len(got), n, res.Damaged)
			}
		case !res.Damaged:
			t.Fatalf("cut %d mid-record not reported damaged", cut)
		}
	}
}

// TestTortureCorruptEveryByte flips each byte of the journal in turn:
// recovery must still return a valid prefix — the CRC catches the
// damage, and no record after the flip survives unvalidated. The two
// version bytes are the exception: under an intact magic they name
// another format, which recovery refuses without touching the file
// rather than "repair" by cutting every record.
func TestTortureCorruptEveryByte(t *testing.T) {
	const k = 5
	raw, want := buildJournal(t, k)
	dir := t.TempDir()
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0xff
		if i == len(Magic) || i == len(Magic)+1 {
			path := filepath.Join(dir, "v.wal")
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := recoverFile(path, nil); !errors.Is(err, ErrVersion) {
				t.Fatalf("flip %d (version): %v, want ErrVersion", i, err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, bad) {
				t.Fatalf("flip %d (version): refused journal was modified", i)
			}
			continue
		}
		got, res, size := recoverBytes(t, dir, bad)
		assertPrefix(t, "corrupt", got, want)
		if size != res.ValidBytes {
			t.Fatalf("flip %d: file %d bytes after recovery, valid prefix %d", i, size, res.ValidBytes)
		}
		if len(got) == k && i >= headerSize {
			// A flip inside some record's frame must cost at least that
			// record (CRC32C has no single-bit-flip collisions).
			t.Fatalf("flip %d: all %d records survived a corrupted byte", i, k)
		}
	}
}

// TestTortureGarbageTail proves appending garbage after valid records
// costs only the garbage.
func TestTortureGarbageTail(t *testing.T) {
	const k = 4
	raw, want := buildJournal(t, k)
	dir := t.TempDir()
	for _, tail := range [][]byte{
		{0x00}, {0xff, 0xff}, bytes.Repeat([]byte{0xab}, 100),
	} {
		got, res, _ := recoverBytes(t, dir, append(append([]byte(nil), raw...), tail...))
		assertPrefix(t, "garbage tail", got, want)
		if len(got) != k || !res.Damaged {
			t.Fatalf("garbage tail: %d records (want %d), damaged=%v", len(got), k, res.Damaged)
		}
	}
}
