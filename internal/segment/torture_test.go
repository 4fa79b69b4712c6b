package segment

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// segFixture captures a reference segment's full logical content for
// equality checks against damaged copies.
type segFixture struct {
	raw   []byte
	clips []ClipColumns
	tombs []string
}

func buildFixture(t testing.TB) segFixture {
	t.Helper()
	clips := makeClips(11, 4)
	tombs := []string{"dead-a", "dead-b"}
	var buf bytes.Buffer
	if err := Write(&buf, 9, clips, tombs); err != nil {
		t.Fatal(err)
	}
	return segFixture{raw: buf.Bytes(), clips: clips, tombs: tombs}
}

// openBytes writes raw to a scratch file and opens it, holding the
// in-memory opener to the same verdict on the same bytes.
func openBytes(t testing.TB, dir string, raw []byte) (*Reader, error) {
	t.Helper()
	path := filepath.Join(dir, "x.vseg")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if _, merr := OpenBytes(raw); (merr == nil) != (err == nil) {
		t.Fatalf("Open says %v, OpenBytes says %v", err, merr)
	}
	return r, err
}

// assertIntact fails unless r's decoded content equals the fixture —
// the only acceptable outcome when damage lands in dead bytes
// (alignment padding) that no checksum covers.
func assertIntact(t *testing.T, label string, r *Reader, fx segFixture) {
	t.Helper()
	defer r.Close()
	if r.NumClips() != len(fx.clips) || !reflect.DeepEqual(r.Tombstones(), fx.tombs) {
		t.Fatalf("%s: opened but decoded different shape", label)
	}
	for i := range fx.clips {
		got, err := r.Clip(i)
		if err != nil || !reflect.DeepEqual(got, fx.clips[i]) {
			t.Fatalf("%s: opened but clip %d differs (err %v)", label, i, err)
		}
	}
}

// TestTortureFlipEveryByte flips every byte of a segment in turn: Open
// must either reject the file with ErrCorrupt or decode content
// identical to the original (possible only when the flip hit alignment
// padding or a checksum-covered byte whose change the CRC detected —
// never silently different data).
func TestTortureFlipEveryByte(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is not short")
	}
	fx := buildFixture(t)
	dir := t.TempDir()
	mut := make([]byte, len(fx.raw))
	for off := range fx.raw {
		copy(mut, fx.raw)
		mut[off] ^= 0xFF
		r, err := openBytes(t, dir, mut)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("offset %d: error is not ErrCorrupt: %v", off, err)
			}
			continue
		}
		assertIntact(t, "flip@"+itoa(off), r, fx)
	}
}

// TestTortureTruncateEveryLength truncates the segment to every
// possible length: every prefix must be rejected — a segment is valid
// only with its last byte present, because the footer and tail live at
// the end.
func TestTortureTruncateEveryLength(t *testing.T) {
	if testing.Short() {
		t.Skip("torture is not short")
	}
	fx := buildFixture(t)
	dir := t.TempDir()
	for n := 0; n < len(fx.raw); n++ {
		if _, err := openBytes(t, dir, fx.raw[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(fx.raw))
		}
	}
}

// TestTortureAppendGarbage appends trailing bytes: the tail no longer
// parses as a valid envelope, so Open must reject.
func TestTortureAppendGarbage(t *testing.T) {
	fx := buildFixture(t)
	dir := t.TempDir()
	for _, extra := range [][]byte{{0}, {0xFF, 0xFF}, bytes.Repeat([]byte{0xAB}, 64)} {
		raw := append(append([]byte(nil), fx.raw...), extra...)
		if _, err := openBytes(t, dir, raw); err == nil {
			t.Fatalf("segment with %d trailing garbage bytes accepted", len(extra))
		}
	}
}

// TestTortureManifestFlipEveryByte is the manifest counterpart: any
// flipped byte must be rejected or decode identically.
func TestTortureManifestFlipEveryByte(t *testing.T) {
	m := Manifest{NextID: 4, Segments: []SegmentInfo{
		{File: SegmentFileName(1), ID: 1, Gen: 2, Clips: 3, Shots: 12, Bytes: 2048},
		{File: SegmentFileName(3), ID: 3, Gen: 1, Clips: 1, Shots: 2, Tombs: 2, Bytes: 256},
	}}
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	mut := make([]byte, len(raw))
	for off := range raw {
		copy(mut, raw)
		mut[off] ^= 0xFF
		got, err := DecodeManifest(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("offset %d: flipped manifest decoded differently", off)
		}
	}
	for n := 0; n < len(raw); n++ {
		if _, err := DecodeManifest(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("manifest truncated to %d bytes accepted", n)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
