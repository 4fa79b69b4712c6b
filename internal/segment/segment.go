// Package segment implements the beyond-RAM storage format of the
// database: immutable, versioned, CRC32C-checksummed columnar segment
// files that are written once (through fsx.AtomicWrite) and then only
// ever opened read-only by mmap. A segment holds the analysis state of
// many clips laid out in fixed-width columns —
//
//	directory   per-clip metadata (name, frames, column offsets, stats)
//	shots       one fixed-width row per shot (frame range + feature vector)
//	trees       one fixed-width row per flattened scene-tree node
//	index run   the clips' varindex entries, stored pre-sorted
//	tombstones  clip names this segment deletes from older segments
//
// — followed by a footer manifest (the section table with per-section
// checksums). Because the columns are fixed-width little-endian scalars,
// a clip is materialized by decoding a contiguous byte range of the
// mapping; until then the page cache, not the Go heap, holds it. The
// footer-last layout means a segment becomes valid only when its last
// byte is written, which composes with AtomicWrite into crash-atomic
// segment creation.
//
// A database's set of live segments is named by a Manifest (manifest.go)
// and mutated only by whole-file replacement; the lifecycle (flush,
// tiered compaction, WAL interplay) lives in internal/segstore and is
// documented in docs/STORAGE.md.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"videodb/internal/feature"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/varindex"
)

// Magic identifies a segment file; it appears at offset 0 and again in
// the 8-byte tail so truncation from either end is detected before any
// parsing.
const Magic = "VDSG"

// FormatVersion is the current segment format version.
const FormatVersion = 1

// ErrCorrupt reports a segment whose structure or checksums do not hold
// together; match it with errors.Is. Every open-time failure short of a
// real I/O error wraps it.
var ErrCorrupt = errors.New("segment: corrupt segment")

// castagnoli is the segment checksum polynomial — the same CRC32C the
// WAL framing uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Section kinds, in their on-disk order.
const (
	secDir   = uint16(1)
	secShots = uint16(2)
	secTrees = uint16(3)
	secIndex = uint16(4)
	secTombs = uint16(5)
)

// Fixed row widths of the columnar sections. Rows are multiples of 8
// bytes and sections start 8-aligned, so every float64 cell sits on a
// natural boundary of the mapping.
const (
	// shotRowSize: start, end, repFrame, featStart, featEnd, pad (u32
	// each) + VarBA, VarOA, MeanBA[3], MeanOA[3] (f64 each).
	shotRowSize = 6*4 + 8*8
	// treeRowSize: Shot, Level, RepFrame, RunLen, Parent, pad (i32 each).
	treeRowSize = 6 * 4
	// indexRowSize: clip, shot, start, end (u32 each) + VarBA, VarOA,
	// MeanBA[3] (f64 each).
	indexRowSize = 4*4 + 5*8
)

// headerSize: magic(4) + version(2) + pad(2) + segment id(8).
const headerSize = 16

// tailSize: footer length u32 + magic(4).
const tailSize = 8

// maxSection caps any single section length Open will accept; a footer
// claiming more is corruption, not data.
const maxSection = int64(1) << 40

// maxName bounds one clip or tombstone name.
const maxName = 1 << 20

// ClipColumns is the analysis state of one clip in columnar form — the
// unit a segment stores and returns. Shots, Feats and Reps are aligned
// per-shot columns (identical lengths); Tree is the flattened scene
// tree. It carries no pixels.
type ClipColumns struct {
	Name        string
	Frames, FPS int
	Shots       []sbd.Shot
	Feats       []feature.ShotFeature
	Reps        []int
	Tree        []scenetree.FlatNode
	Stats       sbd.Stats
}

// Validate checks the columns' internal alignment and holds every shot
// feature to the domain rule of varindex.Query.Validate.
func (c *ClipColumns) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("segment: clip with empty name")
	}
	if len(c.Name) > maxName {
		return fmt.Errorf("segment: clip name %d bytes long", len(c.Name))
	}
	if len(c.Feats) != len(c.Shots) || len(c.Reps) != len(c.Shots) {
		return fmt.Errorf("segment: clip %q: misaligned columns (%d shots, %d feats, %d reps)",
			c.Name, len(c.Shots), len(c.Feats), len(c.Reps))
	}
	if len(c.Shots) == 0 {
		return fmt.Errorf("segment: clip %q has no shots", c.Name)
	}
	if len(c.Tree) == 0 {
		return fmt.Errorf("segment: clip %q has no scene tree", c.Name)
	}
	for k, f := range c.Feats {
		q := varindex.Query{VarBA: f.VarBA, VarOA: f.VarOA, MeanBA: f.MeanBA}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("segment: clip %q shot %d: out-of-domain feature (%v)", c.Name, k, err)
		}
	}
	return nil
}

// Entries returns the clip's varindex entries in shot order — what the
// in-memory index is rebuilt from.
func (c *ClipColumns) Entries(dst []varindex.Entry) []varindex.Entry {
	for k, s := range c.Shots {
		dst = append(dst, varindex.Entry{
			Clip: c.Name, Shot: k,
			Start: s.Start, End: s.End,
			VarBA: c.Feats[k].VarBA, VarOA: c.Feats[k].VarOA,
			MeanBA: c.Feats[k].MeanBA,
		})
	}
	return dst
}

// Write encodes one segment: id, the clips in order, their index run —
// their varindex entries Added in clip and shot order, then Built — and
// the tombstones this segment applies to older segments. The signature
// fits fsx.AtomicWrite.
//
// Clips must be non-empty or tombstones non-empty: an empty segment has
// nothing to say and is rejected.
func Write(w io.Writer, id uint64, clips []ClipColumns, tombs []string) error {
	if len(clips) == 0 && len(tombs) == 0 {
		return fmt.Errorf("segment: refusing to write an empty segment")
	}
	clipIdx := make(map[string]int, len(clips))
	run := varindex.New()
	for i := range clips {
		if err := clips[i].Validate(); err != nil {
			return err
		}
		if _, dup := clipIdx[clips[i].Name]; dup {
			return fmt.Errorf("segment: duplicate clip %q", clips[i].Name)
		}
		clipIdx[clips[i].Name] = i
		for _, e := range clips[i].Entries(nil) {
			run.Add(e)
		}
	}
	run.Build()

	enc := newEncoder()

	// Directory.
	enc.beginSection(secDir)
	enc.u32(uint32(len(clips)))
	shotOff, treeOff := 0, 0
	for i := range clips {
		c := &clips[i]
		enc.str(c.Name)
		enc.u32(uint32(c.Frames))
		enc.u32(uint32(c.FPS))
		enc.u32(uint32(shotOff))
		enc.u32(uint32(len(c.Shots)))
		enc.u32(uint32(treeOff))
		enc.u32(uint32(len(c.Tree)))
		enc.i64(int64(c.Stats.Pairs))
		enc.i64(int64(c.Stats.BySign))
		enc.i64(int64(c.Stats.BySig))
		enc.i64(int64(c.Stats.ByTrack))
		enc.i64(int64(c.Stats.Boundary))
		shotOff += len(c.Shots)
		treeOff += len(c.Tree)
	}
	enc.endSection()

	// Shot column.
	enc.beginSection(secShots)
	for i := range clips {
		c := &clips[i]
		for k := range c.Shots {
			enc.u32(uint32(c.Shots[k].Start))
			enc.u32(uint32(c.Shots[k].End))
			enc.u32(uint32(c.Reps[k]))
			enc.u32(uint32(c.Feats[k].Start))
			enc.u32(uint32(c.Feats[k].End))
			enc.u32(0)
			enc.f64(c.Feats[k].VarBA)
			enc.f64(c.Feats[k].VarOA)
			for ch := 0; ch < 3; ch++ {
				enc.f64(c.Feats[k].MeanBA[ch])
			}
			for ch := 0; ch < 3; ch++ {
				enc.f64(c.Feats[k].MeanOA[ch])
			}
		}
	}
	enc.endSection()

	// Scene-tree column.
	enc.beginSection(secTrees)
	for i := range clips {
		for _, n := range clips[i].Tree {
			enc.i32(int32(n.Shot))
			enc.i32(int32(n.Level))
			enc.i32(int32(n.RepFrame))
			enc.i32(int32(n.RunLen))
			enc.i32(int32(n.Parent))
			enc.i32(0)
		}
	}
	enc.endSection()

	// Sorted index run.
	enc.beginSection(secIndex)
	for _, e := range run.Entries() {
		enc.u32(uint32(clipIdx[e.Clip]))
		enc.u32(uint32(e.Shot))
		enc.u32(uint32(e.Start))
		enc.u32(uint32(e.End))
		enc.f64(e.VarBA)
		enc.f64(e.VarOA)
		for ch := 0; ch < 3; ch++ {
			enc.f64(e.MeanBA[ch])
		}
	}
	enc.endSection()

	// Tombstones.
	enc.beginSection(secTombs)
	enc.u32(uint32(len(tombs)))
	for _, name := range tombs {
		if name == "" || len(name) > maxName {
			return fmt.Errorf("segment: invalid tombstone name (%d bytes)", len(name))
		}
		enc.str(name)
	}
	enc.endSection()

	return enc.finish(w, id)
}

// encoder accumulates the segment body and section table in memory; a
// segment is bounded by the memtable that flushes it, so buffering the
// whole file is the simple and correct choice under AtomicWrite.
type encoder struct {
	buf      []byte
	sections []sectionInfo
	cur      uint16 // kind of the open section
	curStart int64
}

type sectionInfo struct {
	kind   uint16
	off    int64
	length int64
	crc    uint32
}

func newEncoder() *encoder {
	e := &encoder{}
	// Header placeholder; finish fills it in.
	e.buf = append(e.buf, make([]byte, headerSize)...)
	return e
}

func (e *encoder) beginSection(kind uint16) {
	// Pad to 8-byte alignment so fixed-width rows stay aligned.
	for len(e.buf)%8 != 0 {
		e.buf = append(e.buf, 0)
	}
	e.cur, e.curStart = kind, int64(len(e.buf))
}

func (e *encoder) endSection() {
	body := e.buf[e.curStart:]
	e.sections = append(e.sections, sectionInfo{
		kind: e.cur, off: e.curStart, length: int64(len(body)),
		crc: crc32.Checksum(body, castagnoli),
	})
}

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }
func (e *encoder) i32(v int32)  { e.u32(uint32(v)) }
func (e *encoder) i64(v int64)  { e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(v)) }
func (e *encoder) f64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// finish writes header, body, footer table, footer CRC and tail.
func (e *encoder) finish(w io.Writer, id uint64) error {
	copy(e.buf[0:4], Magic)
	binary.LittleEndian.PutUint16(e.buf[4:6], FormatVersion)
	binary.LittleEndian.PutUint64(e.buf[8:16], id)

	footer := make([]byte, 0, 4+len(e.sections)*32)
	footer = binary.LittleEndian.AppendUint32(footer, uint32(len(e.sections)))
	for _, s := range e.sections {
		footer = binary.LittleEndian.AppendUint16(footer, s.kind)
		footer = binary.LittleEndian.AppendUint16(footer, 0)
		footer = binary.LittleEndian.AppendUint32(footer, s.crc)
		footer = binary.LittleEndian.AppendUint64(footer, uint64(s.off))
		footer = binary.LittleEndian.AppendUint64(footer, uint64(s.length))
	}
	footer = binary.LittleEndian.AppendUint32(footer, crc32.Checksum(footer, castagnoli))

	if _, err := w.Write(e.buf); err != nil {
		return err
	}
	if _, err := w.Write(footer); err != nil {
		return err
	}
	tail := make([]byte, 0, tailSize)
	tail = binary.LittleEndian.AppendUint32(tail, uint32(len(footer)))
	tail = append(tail, Magic...)
	_, err := w.Write(tail)
	return err
}
