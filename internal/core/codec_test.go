package core_test

import (
	"bytes"
	"io"
	"testing"

	"videodb/internal/core"
	"videodb/internal/experiments"
)

// TestClipRecordEncodingIsAFunctionOfTheRecord proves the property the
// reshard engine's byte-for-byte copy verification stands on, over the
// Table-5 corpus: a record's encoding depends on the record alone.
// Importing it into a fresh database and re-exporting gives the same
// bytes, and so does encoding it again after the process has encoded
// other records and whole-database snapshots in between — the codec
// keeps no state a process could accumulate.
func TestClipRecordEncodingIsAFunctionOfTheRecord(t *testing.T) {
	src, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range experiments.Table5Corpus() {
		clip, _, err := d.Build(0.02)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := src.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	encode := func(rec *core.ClipRecord) []byte {
		t.Helper()
		p, err := core.EncodeClipRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	recs := src.Records()
	first := make([][]byte, len(recs))
	for i, rec := range recs {
		first[i] = encode(rec)
	}
	// Unrelated traffic through the same codec: a snapshot of the whole
	// corpus, as a replica bootstrap would take.
	if err := src.BeginSnapshot().WriteSegment(io.Discard, 0); err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if again := encode(rec); !bytes.Equal(again, first[i]) {
			t.Fatalf("clip %q: encoding changed after unrelated traffic (%d vs %d bytes)", rec.Name, len(again), len(first[i]))
		}
		dst, err := core.Open(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		name, err := dst.ImportClipRecord(first[i])
		if err != nil {
			t.Fatalf("clip %q: import: %v", rec.Name, err)
		}
		got, ok := dst.Clip(name)
		if !ok || name != rec.Name {
			t.Fatalf("clip %q imported as %q (present=%v)", rec.Name, name, ok)
		}
		if echo := encode(got); !bytes.Equal(echo, first[i]) {
			t.Fatalf("clip %q: re-export differs from the imported record (%d vs %d bytes)", rec.Name, len(echo), len(first[i]))
		}
	}
}
