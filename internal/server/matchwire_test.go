package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"videodb/internal/core"
	"videodb/internal/scenetree"
	"videodb/internal/varindex"
)

// encodingJSON is what the node wrote before AppendMatches: ms
// converted to []MatchJSON and encoded by encoding/json.
func encodingJSON(t testing.TB, ms []core.Match) []byte {
	t.Helper()
	out := make([]MatchJSON, 0, len(ms))
	for _, m := range ms {
		mj := MatchJSON{
			Clip: m.Entry.Clip, Shot: m.Entry.Shot,
			Start: m.Entry.Start, End: m.Entry.End,
			VarBA: m.Entry.VarBA, VarOA: m.Entry.VarOA, Dv: m.Entry.Dv(),
		}
		if m.Scene != nil {
			mj.Scene = m.Scene.Name()
		}
		out = append(out, mj)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAppendMatchesIsEncodingJSON: the hand-written encoder writes the
// bytes encoding/json writes, across the string escapes and the float
// formats' edges, with and without a scene.
func TestAppendMatchesIsEncodingJSON(t *testing.T) {
	clips := []string{"clip-01", "a<b>&c", "line\u2028sep", "ctl\x01", "bad\xffutf8", `q"b\s`, "café", "del\x7f"}
	floats := []float64{0, 1, 0.5, 1e-7, 1e-6, 1e20, 1e21, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 123.456789012345678}
	var ms []core.Match
	for i, v := range floats {
		for j, clip := range clips {
			e := varindex.Entry{Clip: clip, Shot: i, Start: 30 * j, End: 1 << 40, VarBA: v, VarOA: floats[(i+j)%len(floats)]}
			ms = append(ms,
				core.Match{Entry: e},
				core.Match{Entry: e, Scene: &scenetree.Node{Shot: j, Level: i}})
		}
	}
	for _, tc := range [][]core.Match{nil, ms[:1], ms[1:2], ms} {
		got := append(AppendMatches(nil, tc), '\n')
		if want := encodingJSON(t, tc); !bytes.Equal(got, want) {
			t.Fatalf("AppendMatches differs from encoding/json\n got: %s\nwant: %s", got, want)
		}
	}
}

// TestScanRefusesOtherGrammar: the scanner reads only what AppendMatches
// writes. Each body here is refused, and a batch's null list reads as
// empty.
func TestScanRefusesOtherGrammar(t *testing.T) {
	const m = `{"clip":"c","shot":1,"start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41}`
	for _, body := range []string{
		"",
		"null",
		"[" + m + "]x",
		"[" + m + "]\n\n",
		"[ " + m + "]",
		"[" + m + ",]",
		`[{"clip":"c","shot":1,"start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41,"extra":1}]`,
		`[{"shot":1,"clip":"c","start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41}]`,
		`[{"clip":"c\xff","shot":1,"start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41}]`,
		`[{"clip":"c","shot":1.5,"start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41}]`,
		`[{"clip":"c","shot":1,"start":0,"end":9,"varBA":1e999,"varOA":2,"dv":-0.41}]`,
		`[{"clip":"c","shot":01,"start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41}]`,
		`[{"clip":"c","shot":1,"start":0,"end":9,"varBA":1,"varOA":2,"dv":-0.41,"scene":"\q"}]`,
	} {
		if _, err := ScanMatches([]byte(body)); err == nil {
			t.Errorf("ScanMatches accepted %q", body)
		}
	}
	lists, err := ScanBatch([]byte(`{"results":[null,[` + m + `]]}` + "\n"))
	if err != nil || len(lists) != 2 || len(lists[0]) != 0 || len(lists[1]) != 1 {
		t.Fatalf("ScanBatch = %d lists, %v; want an empty list and one match", len(lists), err)
	}
	if _, err := ScanBatch([]byte(`{"results":[[` + m + `]],"partial":false}`)); err == nil {
		t.Error("ScanBatch accepted an unknown member")
	}
}

// matchesFromBytes draws matches from a byte string: clip names of
// arbitrary bytes, and finite non-negative variances of arbitrary bits.
func matchesFromBytes(data []byte) []core.Match {
	variance := func(b []byte) float64 {
		f := math.Float64frombits(binary.LittleEndian.Uint64(b))
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return 0
		}
		if f < 0 {
			return -f
		}
		return f
	}
	var ms []core.Match
	for len(data) >= 18 {
		n := int(data[0] % 8)
		if len(data) < 18+n {
			break
		}
		m := core.Match{Entry: varindex.Entry{
			Clip: string(data[2 : 2+n]), Shot: int(data[1]), Start: int(data[0]), End: int(data[1]) << 20,
			VarBA: variance(data[2+n:]), VarOA: variance(data[10+n:]),
		}}
		if data[1]&1 == 1 {
			m.Scene = &scenetree.Node{Shot: int(data[0]), Level: int(data[1] >> 4)}
		}
		ms = append(ms, m)
		data = data[18+n:]
	}
	return ms
}

// FuzzScanMatches holds the scanner to encoding/json: it never panics;
// what it accepts, json.Unmarshal accepts too, with the same clip, shot
// and variance bits, and every relayed span is valid JSON; and it reads
// back exactly what AppendMatches wrote.
func FuzzScanMatches(f *testing.F) {
	seed := make([]byte, 0, 256)
	for i := uint64(0); len(seed) < 256; i++ {
		seed = binary.LittleEndian.AppendUint64(seed, i*0x9e3779b97f4a7c15)
	}
	f.Add(seed)
	f.Add([]byte("[]\n"))
	f.Add(append(AppendMatches(nil, matchesFromBytes(seed)), '\n'))
	f.Add([]byte(`[{"clip":"aé\"","shot":-0,"start":1,"end":2,"varBA":1E+2,"varOA":0.5e-3,"dv":-0,"scene":"SN_1^0"}]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := ScanMatches(data); err == nil {
			var want []MatchJSON
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("scanner accepted what encoding/json refuses (%v): %q", err, data)
			}
			checkScanned(t, got, want)
		}

		ms := matchesFromBytes(data)
		body := append(AppendMatches(nil, ms), '\n')
		got, err := ScanMatches(body)
		if err != nil {
			t.Fatalf("scanner refused AppendMatches' output (%v): %q", err, body)
		}
		var want []MatchJSON
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		checkScanned(t, got, want)
		spans := make([]string, len(got))
		for i, m := range got {
			if math.Float64bits(m.VarBA) != math.Float64bits(ms[i].Entry.VarBA) ||
				math.Float64bits(m.VarOA) != math.Float64bits(ms[i].Entry.VarOA) {
				t.Fatalf("match %d: variances %v/%v read back as %v/%v", i, ms[i].Entry.VarBA, ms[i].Entry.VarOA, m.VarBA, m.VarOA)
			}
			spans[i] = string(m.JSON)
		}
		if relayed := "[" + strings.Join(spans, ",") + "]\n"; relayed != string(body) {
			t.Fatalf("relayed spans do not rebuild the body\n got: %s\nwant: %s", relayed, body)
		}
	})
}

// checkScanned compares scanned matches with encoding/json's decoding
// of the same body.
func checkScanned(t *testing.T, got []RawMatch, want []MatchJSON) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("scanned %d matches, encoding/json %d", len(got), len(want))
	}
	for i, m := range got {
		w := want[i]
		if m.Clip != w.Clip || m.Shot != w.Shot ||
			math.Float64bits(m.VarBA) != math.Float64bits(w.VarBA) ||
			math.Float64bits(m.VarOA) != math.Float64bits(w.VarOA) {
			t.Fatalf("match %d: scanned %q/%d/%v/%v, encoding/json %q/%d/%v/%v",
				i, m.Clip, m.Shot, m.VarBA, m.VarOA, w.Clip, w.Shot, w.VarBA, w.VarOA)
		}
		if !json.Valid(m.JSON) {
			t.Fatalf("match %d: relayed span is not valid JSON: %q", i, m.JSON)
		}
	}
}
