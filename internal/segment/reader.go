package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"

	"videodb/internal/feature"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/varindex"
)

// clipMeta is one decoded directory entry: everything needed to find a
// clip's rows without touching the data columns.
type clipMeta struct {
	name               string
	frames, fps        int
	shotOff, shotCount int
	treeOff, treeCount int
	stats              sbd.Stats
}

// Reader is an open, verified, immutable segment. The data columns
// live in a read-only mmap of the file: clip materialization decodes a
// contiguous byte range of the mapping, so until a clip is touched the
// page cache — not the heap — holds it, and the kernel can evict cold
// pages under memory pressure. Only the directory (O(clips) names and
// offsets) is decoded into the heap at open.
//
// A Reader is safe for concurrent use and stays valid after its file
// is unlinked (compaction removes superseded files while pinned views
// still read them); Close unmaps explicitly, and a finalizer unmaps
// abandoned readers so long-running compaction cannot leak mappings.
type Reader struct {
	id    uint64
	path  string
	data  []byte
	unmap func() error

	clips  []clipMeta
	byName map[string]int
	tombs  []string

	shots     []byte // shot column, len = shotTotal*shotRowSize
	trees     []byte // tree column
	index     []byte // sorted index run
	shotTotal int
}

// corrupt wraps a format complaint with ErrCorrupt and the path.
func corrupt(path, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrCorrupt, path, fmt.Sprintf(format, args...))
}

// Open maps the segment at path read-only and verifies it end to end:
// header and tail magic, footer checksum, section bounds, and every
// section's CRC32C. Verification streams the file through the page
// cache once; the pages stay clean and reclaimable. Corruption anywhere
// reports ErrCorrupt.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("segment: mapping %s: %w", path, err)
	}
	r := &Reader{path: path, data: data, unmap: unmap}
	if err := r.parse(); err != nil {
		r.Close()
		return nil, err
	}
	// Safety net for readers superseded by compaction and dropped by
	// the view chain without an explicit Close.
	runtime.SetFinalizer(r, func(r *Reader) { r.Close() })
	return r, nil
}

// OpenBytes verifies and opens a segment held in memory — a clip record
// off the journal or the wire, a replica bootstrap body — exactly as
// Open does a file. The Reader reads from data until it is dropped;
// everything it hands out (names, Clip columns, index entries) is
// copied, so data may be reused once the caller is done with the Reader.
func OpenBytes(data []byte) (*Reader, error) {
	r := &Reader{path: "(memory)", data: data}
	if err := r.parse(); err != nil {
		return nil, err
	}
	return r, nil
}

// Close unmaps the segment. The Reader must not be used afterwards.
func (r *Reader) Close() error {
	if r.unmap == nil {
		return nil
	}
	u := r.unmap
	r.unmap = nil
	r.data, r.shots, r.trees, r.index = nil, nil, nil, nil
	runtime.SetFinalizer(r, nil)
	return u()
}

// parse verifies the envelope and decodes the directory.
func (r *Reader) parse() error {
	d, path := r.data, r.path
	if len(d) < headerSize+tailSize {
		return corrupt(path, "too small (%d bytes)", len(d))
	}
	if string(d[0:4]) != Magic {
		return corrupt(path, "bad header magic")
	}
	if v := binary.LittleEndian.Uint16(d[4:6]); v != FormatVersion {
		return corrupt(path, "unsupported format version %d", v)
	}
	r.id = binary.LittleEndian.Uint64(d[8:16])
	tail := d[len(d)-tailSize:]
	if string(tail[4:8]) != Magic {
		return corrupt(path, "bad tail magic")
	}
	footerLen := int64(binary.LittleEndian.Uint32(tail[0:4]))
	footerStart := int64(len(d)) - tailSize - footerLen
	if footerLen < 8 || footerStart < headerSize {
		return corrupt(path, "implausible footer length %d", footerLen)
	}
	footer := d[footerStart : footerStart+footerLen]
	body, wantCRC := footer[:len(footer)-4], binary.LittleEndian.Uint32(footer[len(footer)-4:])
	if got := crc32.Checksum(body, castagnoli); got != wantCRC {
		return corrupt(path, "footer checksum mismatch (file %08x, computed %08x)", wantCRC, got)
	}
	const rowSize = 24 // kind u16 + pad u16 + crc u32 + off u64 + len u64
	n := int64(binary.LittleEndian.Uint32(body[0:4]))
	if n*rowSize != int64(len(body))-4 {
		return corrupt(path, "footer claims %d sections in %d table bytes", n, len(body)-4)
	}
	var dir, shots, trees, index, tombs []byte
	seen := map[uint16]bool{}
	for i := int64(0); i < n; i++ {
		row := body[4+i*rowSize:]
		kind := binary.LittleEndian.Uint16(row[0:2])
		crc := binary.LittleEndian.Uint32(row[4:8])
		off := int64(binary.LittleEndian.Uint64(row[8:16]))
		length := int64(binary.LittleEndian.Uint64(row[16:24]))
		if length < 0 || length > maxSection || off < headerSize || off+length > footerStart {
			return corrupt(path, "section %d out of bounds (off %d, len %d)", kind, off, length)
		}
		if seen[kind] {
			return corrupt(path, "duplicate section %d", kind)
		}
		seen[kind] = true
		sec := d[off : off+length]
		if got := crc32.Checksum(sec, castagnoli); got != crc {
			return corrupt(path, "section %d checksum mismatch (file %08x, computed %08x)", kind, crc, got)
		}
		switch kind {
		case secDir:
			dir = sec
		case secShots:
			shots = sec
		case secTrees:
			trees = sec
		case secIndex:
			index = sec
		case secTombs:
			tombs = sec
		default:
			return corrupt(path, "unknown section kind %d", kind)
		}
	}
	for _, k := range []uint16{secDir, secShots, secTrees, secIndex, secTombs} {
		if !seen[k] {
			return corrupt(path, "missing section %d", k)
		}
	}
	if err := r.parseDir(dir, shots, trees, index); err != nil {
		return err
	}
	return r.parseTombs(tombs)
}

// parseDir decodes the directory and validates the data columns'
// shapes against it.
func (r *Reader) parseDir(dir, shots, trees, index []byte) error {
	path := r.path
	dec := decoder{b: dir, path: path}
	count, err := dec.u32()
	if err != nil {
		return err
	}
	if count > uint32(len(dir)) { // each clip needs well over one byte
		return corrupt(path, "implausible clip count %d", count)
	}
	r.clips = make([]clipMeta, 0, count)
	r.byName = make(map[string]int, count)
	shotOff, treeOff := 0, 0
	for i := uint32(0); i < count; i++ {
		var m clipMeta
		if m.name, err = dec.str(); err != nil {
			return err
		}
		fields := [6]uint32{}
		for j := range fields {
			if fields[j], err = dec.u32(); err != nil {
				return err
			}
		}
		m.frames, m.fps = int(fields[0]), int(fields[1])
		m.shotOff, m.shotCount = int(fields[2]), int(fields[3])
		m.treeOff, m.treeCount = int(fields[4]), int(fields[5])
		stats := [5]int64{}
		for j := range stats {
			if stats[j], err = dec.i64(); err != nil {
				return err
			}
		}
		m.stats = sbd.Stats{
			Pairs: int(stats[0]), BySign: int(stats[1]), BySig: int(stats[2]),
			ByTrack: int(stats[3]), Boundary: int(stats[4]),
		}
		if m.name == "" {
			return corrupt(path, "clip %d has an empty name", i)
		}
		if _, dup := r.byName[m.name]; dup {
			return corrupt(path, "duplicate clip %q", m.name)
		}
		if m.shotOff != shotOff || m.treeOff != treeOff || m.shotCount <= 0 || m.treeCount <= 0 {
			return corrupt(path, "clip %q has inconsistent column offsets", m.name)
		}
		shotOff += m.shotCount
		treeOff += m.treeCount
		r.byName[m.name] = len(r.clips)
		r.clips = append(r.clips, m)
	}
	if int64(len(shots)) != int64(shotOff)*shotRowSize {
		return corrupt(path, "shot column is %d bytes for %d shots", len(shots), shotOff)
	}
	if int64(len(trees)) != int64(treeOff)*treeRowSize {
		return corrupt(path, "tree column is %d bytes for %d nodes", len(trees), treeOff)
	}
	if int64(len(index)) != int64(shotOff)*indexRowSize {
		return corrupt(path, "index run is %d bytes for %d shots", len(index), shotOff)
	}
	r.shots, r.trees, r.index, r.shotTotal = shots, trees, index, shotOff
	return nil
}

func (r *Reader) parseTombs(tombs []byte) error {
	dec := decoder{b: tombs, path: r.path}
	count, err := dec.u32()
	if err != nil {
		return err
	}
	if count > uint32(len(tombs)) {
		return corrupt(r.path, "implausible tombstone count %d", count)
	}
	for i := uint32(0); i < count; i++ {
		name, err := dec.str()
		if err != nil {
			return err
		}
		if name == "" {
			return corrupt(r.path, "tombstone %d has an empty name", i)
		}
		r.tombs = append(r.tombs, name)
	}
	return nil
}

// ID returns the segment's unique id from its header.
func (r *Reader) ID() uint64 { return r.id }

// Path returns the file the reader mapped.
func (r *Reader) Path() string { return r.path }

// Size returns the mapped file size in bytes.
func (r *Reader) Size() int64 { return int64(len(r.data)) }

// NumClips returns how many clips the segment holds.
func (r *Reader) NumClips() int { return len(r.clips) }

// NumShots returns the total shot count across all clips.
func (r *Reader) NumShots() int { return r.shotTotal }

// Name returns clip i's name.
func (r *Reader) Name(i int) string { return r.clips[i].name }

// Lookup returns the position of the named clip, if present.
func (r *Reader) Lookup(name string) (int, bool) {
	i, ok := r.byName[name]
	return i, ok
}

// Tombstones returns the clip names this segment deletes from older
// segments. The slice is the reader's; do not mutate.
func (r *Reader) Tombstones() []string { return r.tombs }

// Clip materializes clip i from the mapping: shots, features,
// representative frames, flattened tree and stats are decoded into
// fresh heap slices. This is the only point at which a cold clip costs
// heap; callers cache the result (core's bounded clip cache).
func (r *Reader) Clip(i int) (ClipColumns, error) {
	m := &r.clips[i]
	c := ClipColumns{
		Name: m.name, Frames: m.frames, FPS: m.fps, Stats: m.stats,
		Shots: make([]sbd.Shot, m.shotCount),
		Feats: make([]feature.ShotFeature, m.shotCount),
		Reps:  make([]int, m.shotCount),
		Tree:  make([]scenetree.FlatNode, m.treeCount),
	}
	for k := 0; k < m.shotCount; k++ {
		row := r.shots[(m.shotOff+k)*shotRowSize:]
		c.Shots[k] = sbd.Shot{
			Start: int(binary.LittleEndian.Uint32(row[0:4])),
			End:   int(binary.LittleEndian.Uint32(row[4:8])),
		}
		c.Reps[k] = int(binary.LittleEndian.Uint32(row[8:12]))
		f := &c.Feats[k]
		f.Start = int(binary.LittleEndian.Uint32(row[12:16]))
		f.End = int(binary.LittleEndian.Uint32(row[16:20]))
		f.VarBA = math.Float64frombits(binary.LittleEndian.Uint64(row[24:32]))
		f.VarOA = math.Float64frombits(binary.LittleEndian.Uint64(row[32:40]))
		for ch := 0; ch < 3; ch++ {
			f.MeanBA[ch] = math.Float64frombits(binary.LittleEndian.Uint64(row[40+ch*8 : 48+ch*8]))
			f.MeanOA[ch] = math.Float64frombits(binary.LittleEndian.Uint64(row[64+ch*8 : 72+ch*8]))
		}
	}
	for k := 0; k < m.treeCount; k++ {
		row := r.trees[(m.treeOff+k)*treeRowSize:]
		c.Tree[k] = scenetree.FlatNode{
			Shot:     int(int32(binary.LittleEndian.Uint32(row[0:4]))),
			Level:    int(int32(binary.LittleEndian.Uint32(row[4:8]))),
			RepFrame: int(int32(binary.LittleEndian.Uint32(row[8:12]))),
			RunLen:   int(int32(binary.LittleEndian.Uint32(row[12:16]))),
			Parent:   int(int32(binary.LittleEndian.Uint32(row[16:20]))),
		}
	}
	return c, nil
}

// ClipByName materializes the named clip.
func (r *Reader) ClipByName(name string) (ClipColumns, bool, error) {
	i, ok := r.byName[name]
	if !ok {
		return ClipColumns{}, false, nil
	}
	c, err := r.Clip(i)
	return c, true, err
}

// AppendEntries decodes the segment's pre-sorted index run into dst —
// the rows the in-memory similarity index is rebuilt from at open,
// already in comparator order. A row referencing a clip outside the
// directory was caught at Open (the run length is validated against
// the shot total, and clip ids are checked here defensively).
func (r *Reader) AppendEntries(dst []varindex.Entry) ([]varindex.Entry, error) {
	for j := 0; j < r.shotTotal; j++ {
		row := r.index[j*indexRowSize:]
		ci := int(binary.LittleEndian.Uint32(row[0:4]))
		if ci >= len(r.clips) {
			return dst, corrupt(r.path, "index row %d references clip %d of %d", j, ci, len(r.clips))
		}
		e := varindex.Entry{
			Clip:  r.clips[ci].name,
			Shot:  int(binary.LittleEndian.Uint32(row[4:8])),
			Start: int(binary.LittleEndian.Uint32(row[8:12])),
			End:   int(binary.LittleEndian.Uint32(row[12:16])),
			VarBA: math.Float64frombits(binary.LittleEndian.Uint64(row[16:24])),
			VarOA: math.Float64frombits(binary.LittleEndian.Uint64(row[24:32])),
		}
		for ch := 0; ch < 3; ch++ {
			e.MeanBA[ch] = math.Float64frombits(binary.LittleEndian.Uint64(row[32+ch*8 : 40+ch*8]))
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// decoder reads length-checked scalars from a section.
type decoder struct {
	b    []byte
	off  int
	path string
}

func (d *decoder) u32() (uint32, error) {
	if d.off+4 > len(d.b) {
		return 0, corrupt(d.path, "section truncated at offset %d", d.off)
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	if d.off+8 > len(d.b) {
		return 0, corrupt(d.path, "section truncated at offset %d", d.off)
	}
	v := int64(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > maxName || d.off+int(n) > len(d.b) {
		return "", corrupt(d.path, "string of %d bytes overruns section", n)
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}
