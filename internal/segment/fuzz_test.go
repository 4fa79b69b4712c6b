package segment

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSegmentOpen throws arbitrary bytes at the segment opener: it
// must never panic, and whatever opens must be fully traversable
// (every clip materializes, the index run decodes) without a panic.
func FuzzSegmentOpen(f *testing.F) {
	clips := makeClips(3, 2)
	var buf bytes.Buffer
	if err := Write(&buf, 1, clips, []string{"t"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte{})
	raw := buf.Bytes()
	for _, off := range []int{4, headerSize, len(raw) / 2, len(raw) - tailSize, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		f.Add(mut)
	}
	f.Add(raw[:len(raw)-tailSize])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.vseg")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		r, err := Open(path)
		if err != nil {
			return
		}
		defer r.Close()
		for i := 0; i < r.NumClips(); i++ {
			c, err := r.Clip(i)
			if err == nil {
				_ = c.Entries(nil)
			}
			_ = r.Name(i)
		}
		_, _ = r.AppendEntries(nil)
		_ = r.Tombstones()
	})
}

// FuzzManifestLoad throws arbitrary bytes at the manifest decoder: no
// panic, and anything that decodes must re-validate.
func FuzzManifestLoad(f *testing.F) {
	m := Manifest{NextID: 3, Segments: []SegmentInfo{
		{File: SegmentFileName(1), ID: 1, Gen: 1, Clips: 2, Shots: 5, Bytes: 100},
	}}
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(ManifestMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeManifest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("decoded manifest fails its own validation: %v", verr)
		}
	})
}
