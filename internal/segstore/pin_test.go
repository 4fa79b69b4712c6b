package segstore_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"videodb/internal/vtest"
)

// TestSegmentFilesArePinned runs one fixed sequence of ingests,
// deletes, re-ingests, flushes and compactions at fanout 2 and pins
// every live segment file byte for byte, with its manifest entry, at
// four checkpoints: after three flushes, after a compaction whose run includes the oldest
// segment (tombstones dropped), after one whose run has an older
// segment before it (tombstones kept), and after the cascade that
// follows. A change to how a flush or a compaction composes, orders or
// encodes a segment shows here as a different digest.
func TestSegmentFilesArePinned(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 2)
	db := s.DB()
	ingest := func(name string, seedA, seedB uint64) {
		t.Helper()
		if _, err := db.Ingest(vtest.TwoShotClip(name, seedA, seedB, 8, 16)); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(name string) {
		t.Helper()
		if err := db.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		t.Helper()
		if res, err := s.Flush(); err != nil || !res.Flushed {
			t.Fatalf("Flush = %+v, %v", res, err)
		}
	}
	check := func(label string, want []string) {
		t.Helper()
		var got []string
		for _, si := range s.Manifest().Segments {
			b, err := os.ReadFile(filepath.Join(dir, si.File))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(b)
			got = append(got, fmt.Sprintf("%s gen=%d clips=%d shots=%d tombs=%d sha256=%s",
				si.File, si.Gen, si.Clips, si.Shots, si.Tombs, hex.EncodeToString(sum[:])))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: live segments\n got  %q\n want %q", label, got, want)
		}
	}

	ingest("a", 1, 2)
	ingest("b", 3, 4)
	ingest("c", 5, 6)
	ingest("d", 7, 8)
	flush() // seg 1: a b c d
	remove("b")
	remove("c")
	ingest("c", 9, 10) // re-ingest of a name segment 1 holds
	flush()            // seg 2: c', tombstones b c
	ingest("e", 11, 12)
	flush() // seg 3: e
	check("after the flushes", []string{
		"seg-00000001.vseg gen=1 clips=4 shots=8 tombs=0 sha256=0ba44c613c404507c60b1ccc741c2f437ab1adbfce302eac223d5e5475ae445d",
		"seg-00000002.vseg gen=1 clips=1 shots=2 tombs=2 sha256=08b49000b03afc39acfa50ecb9f9b256d28973e46d847b446b587f92383534bc",
		"seg-00000003.vseg gen=1 clips=1 shots=2 tombs=0 sha256=c1ef41d08df37ad51f0d303b079dec14165300f67ec194a83aee91d90de4ed8b",
	})
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after the first compaction", []string{
		"seg-00000004.vseg gen=2 clips=4 shots=8 tombs=0 sha256=880dfedcf5e9c311834a68fc03e5af182c301e777ded6530b5e04feb44aa09cf",
	})

	remove("a")
	ingest("f", 13, 14)
	flush() // seg 5: f, tombstone a
	remove("d")
	flush() // seg 6: tombstone d only
	if did, err := s.CompactOnce(); err != nil || !did {
		t.Fatalf("CompactOnce = %v, %v", did, err)
	}
	check("after a compaction with an older segment", []string{
		"seg-00000004.vseg gen=2 clips=4 shots=8 tombs=0 sha256=880dfedcf5e9c311834a68fc03e5af182c301e777ded6530b5e04feb44aa09cf",
		"seg-00000007.vseg gen=2 clips=1 shots=2 tombs=2 sha256=1e9e1b58dfdd4d3735afc8a21b410ba3b62aade2a1fca1d07bc87fb08192a58b",
	})

	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	check("after the cascade", []string{
		"seg-00000008.vseg gen=3 clips=3 shots=6 tombs=0 sha256=1c2dcdece9b306af6e3a16e94f824f180dd7a1468be114169f7ace71f5795ac7",
	})
	if got, want := db.Clips(), []string{"c", "e", "f"}; !slices.Equal(got, want) {
		t.Fatalf("Clips = %v, want %v", got, want)
	}
}
