package segment

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"videodb/internal/feature"
	"videodb/internal/rng"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/varindex"
)

// makeClips builds n deterministic synthetic clips with varied shot
// counts, features and tree shapes — the fixture the roundtrip,
// torture and fuzz suites all share.
func makeClips(seed uint64, n int) []ClipColumns {
	r := rng.New(seed)
	clips := make([]ClipColumns, 0, n)
	for i := 0; i < n; i++ {
		shots := 1 + r.Intn(5)
		c := ClipColumns{
			Name:   string(rune('a'+i%26)) + "-clip-" + string(rune('0'+i/26)),
			Frames: shots * 30,
			FPS:    25,
			Stats: sbd.Stats{
				Pairs: shots*30 - 1, BySign: r.Intn(10), BySig: r.Intn(10),
				ByTrack: r.Intn(10), Boundary: shots - 1,
			},
		}
		start := 0
		for k := 0; k < shots; k++ {
			end := start + 29
			c.Shots = append(c.Shots, sbd.Shot{Start: start, End: end})
			c.Feats = append(c.Feats, feature.ShotFeature{
				Start: start, End: end,
				VarBA: r.Float64Range(0, 100), VarOA: r.Float64Range(0, 50),
				MeanBA: [3]float64{r.Float64Range(-3, 3), r.Float64Range(-3, 3), r.Float64Range(-3, 3)},
				MeanOA: [3]float64{r.Float64Range(-3, 3), r.Float64Range(-3, 3), r.Float64Range(-3, 3)},
			})
			c.Reps = append(c.Reps, start+15)
			start = end + 1
		}
		// A root over per-shot leaves is the minimal valid flat tree.
		c.Tree = append(c.Tree, scenetree.FlatNode{Shot: 0, Level: 1, RepFrame: c.Reps[0], RunLen: shots, Parent: -1})
		for k := 0; k < shots; k++ {
			c.Tree = append(c.Tree, scenetree.FlatNode{Shot: k, Level: 0, RepFrame: c.Reps[k], RunLen: 1, Parent: 0})
		}
		clips = append(clips, c)
	}
	return clips
}

// writeFile encodes a segment into a file and returns its bytes.
func writeFile(t testing.TB, dir string, id uint64, clips []ClipColumns, tombs []string) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, id, clips, tombs); err != nil {
		t.Fatalf("Write: %v", err)
	}
	path := filepath.Join(dir, SegmentFileName(id))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	clips := makeClips(7, 9)
	tombs := []string{"old-one", "old-two"}
	path, raw := writeFile(t, t.TempDir(), 42, clips, tombs)

	fromFile, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer fromFile.Close()
	fromBytes, err := OpenBytes(raw)
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	for _, r := range []*Reader{fromFile, fromBytes} {
		assertRoundTrip(t, r, clips, tombs)
	}
}

func assertRoundTrip(t *testing.T, r *Reader, clips []ClipColumns, tombs []string) {
	t.Helper()
	if r.ID() != 42 {
		t.Fatalf("ID = %d, want 42", r.ID())
	}
	if r.NumClips() != len(clips) {
		t.Fatalf("NumClips = %d, want %d", r.NumClips(), len(clips))
	}
	if !reflect.DeepEqual(r.Tombstones(), tombs) {
		t.Fatalf("Tombstones = %v, want %v", r.Tombstones(), tombs)
	}
	for i := range clips {
		got, err := r.Clip(i)
		if err != nil {
			t.Fatalf("Clip(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, clips[i]) {
			t.Fatalf("clip %d did not round-trip:\n got %+v\nwant %+v", i, got, clips[i])
		}
		j, ok := r.Lookup(clips[i].Name)
		if !ok || j != i {
			t.Fatalf("Lookup(%q) = %d,%v", clips[i].Name, j, ok)
		}
	}
	// The run holds the clips' entries in the order a built index does.
	ix := varindex.New()
	for i := range clips {
		for _, e := range clips[i].Entries(nil) {
			ix.Add(e)
		}
	}
	ix.Build()
	want := ix.Entries()
	got, err := r.AppendEntries(nil)
	if err != nil {
		t.Fatalf("AppendEntries: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("index run did not round-trip in order")
	}
	if r.NumShots() != len(want) {
		t.Fatalf("NumShots = %d, want %d", r.NumShots(), len(want))
	}
}

func TestWriteRejects(t *testing.T) {
	clips := makeClips(1, 2)
	var buf bytes.Buffer
	if err := Write(&buf, 1, nil, nil); err == nil {
		t.Fatal("empty segment accepted")
	}
	dup := append(append([]ClipColumns(nil), clips...), clips[0])
	if err := Write(&buf, 1, dup, nil); err == nil {
		t.Fatal("duplicate clip accepted")
	}
	bad := append([]ClipColumns(nil), clips...)
	bad[0].Reps = bad[0].Reps[:len(bad[0].Reps)-1]
	if err := Write(&buf, 1, bad, nil); err == nil {
		t.Fatal("misaligned columns accepted")
	}
	for name, set := range map[string]func(*feature.ShotFeature){
		"NaN VarBA":      func(f *feature.ShotFeature) { f.VarBA = math.NaN() },
		"infinite VarOA": func(f *feature.ShotFeature) { f.VarOA = math.Inf(1) },
		"negative VarBA": func(f *feature.ShotFeature) { f.VarBA = -4 },
		"NaN MeanBA":     func(f *feature.ShotFeature) { f.MeanBA[2] = math.NaN() },
	} {
		bad := append([]ClipColumns(nil), clips...)
		bad[1].Feats = append([]feature.ShotFeature(nil), bad[1].Feats...)
		set(&bad[1].Feats[0])
		if err := Write(&buf, 1, bad, nil); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestTombstoneOnlySegment(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 3, nil, []string{"gone"}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	path := filepath.Join(t.TempDir(), SegmentFileName(3))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.NumClips() != 0 || len(r.Tombstones()) != 1 || r.Tombstones()[0] != "gone" {
		t.Fatalf("tombstone-only segment decoded wrong: %d clips, tombs %v", r.NumClips(), r.Tombstones())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := Manifest{
		NextID: 7,
		Segments: []SegmentInfo{
			{File: SegmentFileName(2), ID: 2, Gen: 2, Clips: 8, Shots: 31, Bytes: 4096},
			{File: SegmentFileName(5), ID: 5, Gen: 1, Clips: 1, Shots: 3, Tombs: 1, Bytes: 512},
		},
	}
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		t.Fatalf("EncodeManifest: %v", err)
	}
	got, err := DecodeManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("DecodeManifest: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("manifest did not round-trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []Manifest{
		{NextID: 1, Segments: []SegmentInfo{{File: "seg-1.vseg", ID: 1, Gen: 1}}},                              // id >= nextId
		{NextID: 9, Segments: []SegmentInfo{{File: "../evil.vseg", ID: 1, Gen: 1}}},                            // path escape
		{NextID: 9, Segments: []SegmentInfo{{File: "a.vseg", ID: 1, Gen: 0}}},                                  // bad gen
		{NextID: 9, Segments: []SegmentInfo{{File: "a.vseg", ID: 1, Gen: 1}, {File: "a.vseg", ID: 2, Gen: 1}}}, // dup file
		{NextID: 9, Segments: []SegmentInfo{{File: "a.vseg", ID: 1, Gen: 1}, {File: "b.vseg", ID: 1, Gen: 1}}}, // dup id
	}
	for i, m := range cases {
		if err := m.Validate(); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("case %d: Validate = %v, want ErrCorruptManifest", i, err)
		}
	}
}

func TestLoadManifestMissing(t *testing.T) {
	m, err := LoadManifest(t.TempDir())
	if err != nil {
		t.Fatalf("LoadManifest on empty dir: %v", err)
	}
	if m.NextID != 1 || len(m.Segments) != 0 {
		t.Fatalf("fresh manifest = %+v", m)
	}
}
