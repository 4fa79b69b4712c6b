package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzJournalReplay: arbitrary bytes must never panic the journal
// reader, never yield a record that fails its checksum discipline, and
// the reported valid prefix must replay identically a second time —
// the invariant startup recovery depends on. The one error an in-memory
// replay may report is ErrVersion, before any record is applied.
func FuzzJournalReplay(f *testing.F) {
	// Seed: a well-formed two-record journal.
	var valid bytes.Buffer
	valid.WriteString(Magic)
	valid.Write([]byte{Version, 0})
	for _, data := range [][]byte{[]byte("clip-a"), []byte("x")} {
		payload := append([]byte{recordVersion, OpIngest}, data...)
		var frame []byte
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
		frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(payload, castagnoli))
		valid.Write(append(frame, payload...))
	}
	f.Add(valid.Bytes())
	// Seed: flipped CRC byte.
	flipped := append([]byte(nil), valid.Bytes()...)
	flipped[headerSize+5] ^= 1
	f.Add(flipped)
	// Seed: truncated mid-payload, bare header, empty, garbage.
	f.Add(valid.Bytes()[:valid.Len()-2])
	f.Add([]byte(Magic + "\x02\x00"))
	f.Add([]byte(Magic + "\x01\x00")) // another format version: refused
	f.Add([]byte{})
	f.Add([]byte("VDBWxxxxxxxxxxxxxxxxxxxxxxxx"))

	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []Record
		res, err := Replay(bytes.NewReader(data), func(r Record) error {
			recs = append(recs, Record{Op: r.Op, Data: append([]byte(nil), r.Data...)})
			return nil
		})
		if errors.Is(err, ErrVersion) {
			if len(recs) != 0 {
				t.Fatalf("%d records of a refused journal were applied", len(recs))
			}
			return
		}
		if err != nil {
			t.Fatalf("in-memory replay reported an I/O error: %v", err)
		}
		if res.ValidBytes > int64(len(data)) || res.TotalBytes > int64(len(data)) {
			t.Fatalf("result exceeds input: %+v for %d bytes", res, len(data))
		}
		if res.Records != len(recs) {
			t.Fatalf("applied %d records, result says %d", len(recs), res.Records)
		}
		if res.Damaged == (res.ValidBytes == res.TotalBytes) && len(data) > 0 {
			t.Fatalf("damage flag inconsistent: %+v", res)
		}
		// Idempotence: replaying the valid prefix alone must yield the
		// same records and no damage.
		again := 0
		res2, err := Replay(bytes.NewReader(data[:res.ValidBytes]), func(r Record) error {
			if again >= len(recs) || recs[again].Op != r.Op || !bytes.Equal(recs[again].Data, r.Data) {
				t.Fatalf("record %d differs on re-replay", again)
			}
			again++
			return nil
		})
		if err != nil || res2.Damaged || again != len(recs) {
			t.Fatalf("valid prefix does not re-replay cleanly: %+v, %v (records %d/%d)", res2, err, again, len(recs))
		}
	})
}
