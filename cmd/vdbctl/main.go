// Command vdbctl is the operator CLI of the video database: it ingests
// VDBF clips into a segment store, prints scene trees, and answers
// variance-based similarity queries.
//
// Usage:
//
//	vdbctl ingest -data ./data clip1.vdbf clip2.vdbf ...
//	vdbctl ingest -data ./data -dir ./corpus [-j workers] [-sync always]
//	vdbctl info   -data ./data
//	vdbctl compact -data ./data [-fanout 4]
//	vdbctl tree   -data ./data -clip "Wag the Dog"
//	vdbctl query  -data ./data -varba 25 -varoa 4 [-alpha 1 -beta 1]
//	vdbctl similar -data ./data -clip "Wag the Dog" -shot 12 -k 3
//	vdbctl export -in clip.vdbf -frame 17 -png out.png
//
// -data DIR names a segment store (default ./data; see docs/STORAGE.md),
// the same directory vdbserver serves. ingest analyzes into the memtable
// under the store's write-ahead journal — a crash mid-batch loses
// nothing already analyzed, the next open replays it — and flushes an
// immutable segment at the end; info mmaps the segments and prints the
// manifest; compact merges small segments into larger generations
// offline; tree, query and similar open the store and read.
package main

import (
	"flag"
	"fmt"
	"image/png"
	"io"
	"os"
	"path/filepath"
	"strings"

	"videodb/internal/core"
	"videodb/internal/feature"
	"videodb/internal/impression"
	"videodb/internal/motion"
	"videodb/internal/sbd"
	"videodb/internal/segstore"
	"videodb/internal/store"
	"videodb/internal/storyboard"
	"videodb/internal/varindex"
	"videodb/internal/video"
	"videodb/internal/wal"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "import":
		err = cmdImport(args)
	case "ingest":
		err = cmdIngest(args)
	case "info":
		err = cmdInfo(args)
	case "compact":
		err = cmdCompact(args)
	case "tree":
		err = cmdTree(args)
	case "query":
		err = cmdQuery(args)
	case "similar":
		err = cmdSimilar(args)
	case "shots":
		err = cmdShots(args)
	case "motion":
		err = cmdMotion(args)
	case "storyboard":
		err = cmdStoryboard(args)
	case "export":
		err = cmdExport(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vdbctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: vdbctl <command> [flags]

commands:
  import   convert Y4M or image-sequence video to a VDBF clip
  ingest   analyze VDBF clips into a -data segment store
  info     summarise a -data segment store
  compact  merge a -data segment store's small segments into larger generations
  tree     print a clip's scene tree
  query    variance-based similarity search
  similar  find shots similar to an existing shot
  shots    segment a VDBF clip, classifying each transition (cut/gradual)
  motion   segment a VDBF clip and label each shot's camera motion
  storyboard  render a clip's per-shot representative frames as one PNG
  export   write one frame of a VDBF clip as PNG`)
}

// dataFlag declares the -data flag every store-reading command takes.
func dataFlag(fs *flag.FlagSet) *string {
	return fs.String("data", "data", "segment-store directory")
}

// openStore opens the segment store in dir and reports what journal
// recovery did.
func openStore(dir string, opts segstore.Options) (*segstore.Store, error) {
	opts.Core = core.DefaultOptions()
	st, err := segstore.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	if res := st.Replay(); res.Damaged {
		fmt.Fprintf(os.Stderr, "vdbctl: store journal had a torn tail; kept %d records, cut %d bytes (%s)\n",
			res.Records, res.TruncatedBytes(), res.Reason)
	} else if res.Records > 0 {
		fmt.Printf("replayed %d journaled records over %s\n", res.Records, dir)
	}
	return st, nil
}

// cmdImport converts external video (YUV4MPEG2 streams or numbered
// image frames) into a VDBF clip, optionally resampling to the 3 fps
// analysis rate the paper uses.
func cmdImport(args []string) error {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	y4m := fs.String("y4m", "", "YUV4MPEG2 input file ('-' for stdin)")
	frames := fs.String("frames", "", "directory of PNG/JPEG frames")
	fps := fs.Int("fps", 30, "nominal fps of an image-sequence input")
	name := fs.String("name", "", "clip name (default: derived from input)")
	out := fs.String("out", "", "output VDBF path (default: <name>.vdbf)")
	resample := fs.Int("resample", 3, "resample to this analysis rate (0 = keep)")
	fs.Parse(args)

	var clip *video.Clip
	var err error
	switch {
	case *y4m != "" && *frames != "":
		return fmt.Errorf("import: -y4m and -frames are mutually exclusive")
	case *y4m != "":
		n := *name
		if n == "" {
			n = strings.TrimSuffix(filepath.Base(*y4m), ".y4m")
		}
		var r io.Reader = os.Stdin
		if *y4m != "-" {
			f, err := os.Open(*y4m)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		clip, err = store.ReadY4M(r, n)
	case *frames != "":
		n := *name
		if n == "" {
			n = filepath.Base(*frames)
		}
		clip, err = store.ImportImageDir(*frames, n, *fps)
	default:
		return fmt.Errorf("import: need -y4m or -frames")
	}
	if err != nil {
		return err
	}
	if *resample > 0 {
		clip = clip.Resample(*resample)
	}
	path := *out
	if path == "" {
		path = clip.Name + store.Ext
	}
	if err := store.SaveClipFile(path, clip); err != nil {
		return err
	}
	fmt.Printf("imported %q: %d frames at %d fps → %s\n", clip.Name, clip.Len(), clip.FPS, path)
	return nil
}

// cmdIngest analyzes clips into the store's memtable (each clip durable
// in the store WAL the moment its ingest returns) and flushes one
// immutable segment at the end.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	dataDir := dataFlag(fs)
	dir := fs.String("dir", "", "ingest every VDBF clip in this directory")
	jobs := fs.Int("j", 0, "per-frame analysis workers (0 = GOMAXPROCS, 1 = serial)")
	syncMode := fs.String("sync", "always", "journal sync policy: always | interval | none")
	fs.Parse(args)

	policy, err := wal.ParsePolicy(*syncMode)
	if err != nil {
		return err
	}
	st, err := openStore(*dataDir, segstore.Options{
		Extra:  []core.OpenOption{core.WithParallelism(*jobs)},
		Policy: policy,
	})
	if err != nil {
		return err
	}
	defer st.Close()
	clips, err := collectClips(*dir, fs.Args())
	if err != nil {
		return err
	}
	// IngestAll analyzes clips in order — each clip's per-frame
	// pipeline fans out across -j workers — and joins every failure
	// into one error; clips that succeeded stay ingested, so the
	// segment is flushed even on partial failure.
	ingestErr := ingestAndReport(st.DB(), clips)
	res, err := st.Flush()
	if err != nil {
		return err
	}
	if res.Flushed {
		fmt.Printf("flushed segment %d: %d clips, %d tombstones, %d bytes\n",
			res.SegmentID, res.Clips, res.Tombstones, res.Bytes)
	}
	return ingestErr
}

// collectClips loads the VDBF clips named on the command line plus
// every readable clip in dir.
func collectClips(dir string, paths []string) ([]*video.Clip, error) {
	if dir != "" {
		cat, err := store.OpenCatalog(dir)
		if err != nil {
			return nil, err
		}
		for path, reason := range cat.Skipped {
			fmt.Fprintf(os.Stderr, "vdbctl: skipping unreadable clip file %s: %s\n", path, reason)
		}
		for _, name := range cat.Names() {
			paths = append(paths, cat.Paths[name])
		}
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no clips to ingest")
	}
	clips := make([]*video.Clip, 0, len(paths))
	for _, p := range paths {
		clip, err := store.LoadClipFile(p)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		clips = append(clips, clip)
	}
	return clips, nil
}

// ingestAndReport analyzes clips into db, printing a line per clip
// that is new to this run, and returns the joined analysis error.
func ingestAndReport(db *core.Database, clips []*video.Clip) error {
	before := make(map[string]bool)
	for _, n := range db.Clips() {
		before[n] = true
	}
	ingestErr := db.IngestAll(clips)
	for _, c := range clips {
		if before[c.Name] {
			continue
		}
		if rec, ok := db.Clip(c.Name); ok {
			fmt.Printf("ingested %-40q %4d shots, tree height %d\n", rec.Name, len(rec.Shots), rec.Tree.Height())
		}
	}
	return ingestErr
}

// cmdInfo summarises a segment store: the manifest's segments and the
// two-tier clip split a server would serve from it.
func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	dataDir := dataFlag(fs)
	fs.Parse(args)
	st, err := openStore(*dataDir, segstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	man := st.Manifest()
	fmt.Printf("segments: %d\n", len(man.Segments))
	for _, seg := range man.Segments {
		fmt.Printf("  %-16s id %4d gen %2d  %4d clips %5d shots %3d tombstones %9d bytes\n",
			seg.File, seg.ID, seg.Gen, seg.Clips, seg.Shots, seg.Tombs, seg.Bytes)
	}
	db := st.DB()
	fmt.Printf("clips: %d (%d memtable, %d cold), indexed shots: %d\n",
		db.ClipCount(), db.MemtableClips(), db.ColdClips(), db.ShotCount())
	for _, name := range db.Clips() {
		rec, ok := db.Clip(name)
		if !ok {
			return fmt.Errorf("clip %q listed but unreadable", name)
		}
		secs := 0
		if rec.FPS > 0 {
			secs = rec.Frames / rec.FPS
		}
		fmt.Printf("  %-40q %5d frames (%d:%02d) %4d shots, tree height %d\n",
			name, rec.Frames, secs/60, secs%60, len(rec.Shots), rec.Tree.Height())
	}
	return nil
}

// cmdCompact merges a segment store's small segments into larger
// generations offline, the same pass vdbserver's background compactor
// runs, until no run is left to merge.
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	dataDir := dataFlag(fs)
	fanout := fs.Int("fanout", segstore.DefaultFanout, "segments per generation before a merge triggers (at least 2)")
	fs.Parse(args)
	st, err := openStore(*dataDir, segstore.Options{Fanout: *fanout})
	if err != nil {
		return err
	}
	defer st.Close()
	before := st.Stats()
	n, err := st.Compact()
	if err != nil {
		return err
	}
	after := st.Stats()
	fmt.Printf("compacted %d runs: %d segments (%d bytes) -> %d segments (%d bytes), max generation %d\n",
		n, before.Segments, before.SegmentBytes, after.Segments, after.SegmentBytes, after.MaxGen)
	return nil
}

func cmdTree(args []string) error {
	fs := flag.NewFlagSet("tree", flag.ExitOnError)
	dataDir := dataFlag(fs)
	clip := fs.String("clip", "", "clip name")
	dot := fs.Bool("dot", false, "emit Graphviz dot instead of ASCII")
	fs.Parse(args)
	if *clip == "" {
		return fmt.Errorf("tree: -clip required")
	}
	st, err := openStore(*dataDir, segstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	db := st.DB()
	tree, err := db.Browse(*clip)
	if err != nil {
		return err
	}
	if *dot {
		fmt.Print(tree.DOT(*clip))
	} else {
		fmt.Print(tree.String())
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	dataDir := dataFlag(fs)
	varBA := fs.Float64("varba", 0, "query Var^BA (degree of background change)")
	varOA := fs.Float64("varoa", 0, "query Var^OA (degree of object-area change)")
	imp := fs.String("impression", "", `qualitative query, e.g. "background=high object=low"`)
	alpha := fs.Float64("alpha", varindex.DefaultAlpha, "Dv tolerance α")
	beta := fs.Float64("beta", varindex.DefaultBeta, "sqrt(VarBA) tolerance β")
	fs.Parse(args)
	st, err := openStore(*dataDir, segstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	db := st.DB()
	q := varindex.Query{VarBA: *varBA, VarOA: *varOA}
	if *imp != "" {
		parsed, err := impression.Parse(*imp)
		if err != nil {
			return err
		}
		q = parsed.Query()
		fmt.Printf("impression %q → VarBA=%.2f VarOA=%.2f\n", parsed, q.VarBA, q.VarOA)
	}
	matches, err := db.QueryWithOptions(q, varindex.Options{Alpha: *alpha, Beta: *beta})
	if err != nil {
		return err
	}
	printMatches(matches)
	return nil
}

func cmdSimilar(args []string) error {
	fs := flag.NewFlagSet("similar", flag.ExitOnError)
	dataDir := dataFlag(fs)
	clip := fs.String("clip", "", "clip name")
	shot := fs.Int("shot", 0, "shot index (0-based)")
	k := fs.Int("k", 3, "number of matches")
	fs.Parse(args)
	if *clip == "" {
		return fmt.Errorf("similar: -clip required")
	}
	st, err := openStore(*dataDir, segstore.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	db := st.DB()
	matches, err := db.QueryByShot(*clip, *shot, *k)
	if err != nil {
		return err
	}
	printMatches(matches)
	return nil
}

func printMatches(matches []core.Match) {
	if len(matches) == 0 {
		fmt.Println("no matching shots")
		return
	}
	for _, m := range matches {
		scene := "-"
		if m.Scene != nil {
			scene = m.Scene.Name()
		}
		fmt.Printf("%-40q shot %3d  frames %4d-%4d  VarBA=%7.2f VarOA=%7.2f Dv=%6.2f  start browsing at %s\n",
			m.Entry.Clip, m.Entry.Shot, m.Entry.Start, m.Entry.End,
			m.Entry.VarBA, m.Entry.VarOA, m.Entry.Dv(), scene)
	}
}

// cmdShots segments a clip and prints each transition with its kind
// (cut or gradual).
func cmdShots(args []string) error {
	fs := flag.NewFlagSet("shots", flag.ExitOnError)
	in := fs.String("in", "", "VDBF clip file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("shots: -in required")
	}
	clip, err := store.LoadClipFile(*in)
	if err != nil {
		return err
	}
	det, err := sbd.NewCameraTracking(sbd.DefaultConfig(), nil)
	if err != nil {
		return err
	}
	bounds, err := det.DetectClassified(clip)
	if err != nil {
		return err
	}
	fmt.Printf("%q: %d frames, %d transitions\n", clip.Name, clip.Len(), len(bounds))
	prev := 0
	for i, b := range bounds {
		fmt.Printf("shot %3d  frames %4d-%4d  then %s\n", i, prev, b.Frame-1, b.Kind)
		prev = b.Frame
	}
	fmt.Printf("shot %3d  frames %4d-%4d\n", len(bounds), prev, clip.Len()-1)
	return nil
}

// cmdMotion segments a clip and labels each shot's camera operation
// from the background-signature shifts.
func cmdMotion(args []string) error {
	fs := flag.NewFlagSet("motion", flag.ExitOnError)
	in := fs.String("in", "", "VDBF clip file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("motion: -in required")
	}
	clip, err := store.LoadClipFile(*in)
	if err != nil {
		return err
	}
	an, err := feature.NewAnalyzer(clip.Frames[0].W, clip.Frames[0].H)
	if err != nil {
		return err
	}
	det, err := sbd.NewCameraTracking(sbd.DefaultConfig(), an)
	if err != nil {
		return err
	}
	feats := an.AnalyzeClip(clip)
	bounds, _ := det.DetectFeatures(feats)
	shots := sbd.ShotsFromBoundaries(bounds, clip.Len())
	classifier, err := motion.NewClassifier(motion.DefaultConfig(), sbd.DefaultConfig())
	if err != nil {
		return err
	}
	for i, sum := range classifier.ClassifyAll(feats, shots) {
		fmt.Printf("shot %3d  frames %4d-%4d  %s\n", i, shots[i].Start, shots[i].End, sum)
	}
	return nil
}

// cmdStoryboard segments a clip and writes the per-shot representative
// frames as a single storyboard PNG.
func cmdStoryboard(args []string) error {
	fs := flag.NewFlagSet("storyboard", flag.ExitOnError)
	in := fs.String("in", "", "VDBF clip file")
	out := fs.String("png", "storyboard.png", "output PNG path")
	cols := fs.Int("cols", 4, "frames per row")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("storyboard: -in required")
	}
	clip, err := store.LoadClipFile(*in)
	if err != nil {
		return err
	}
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return err
	}
	rec, err := db.Ingest(clip)
	if err != nil {
		return err
	}
	opt := storyboard.DefaultOptions()
	opt.Columns = *cols
	board, err := storyboard.ForClip(clip, rec.Tree, opt)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := png.Encode(f, board.ToImage()); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d shots, %dx%d)\n", *out, len(rec.Shots), board.W, board.H)
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	in := fs.String("in", "", "VDBF clip file")
	frame := fs.Int("frame", 0, "frame index")
	out := fs.String("png", "frame.png", "output PNG path")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("export: -in required")
	}
	clip, err := store.LoadClipFile(*in)
	if err != nil {
		return err
	}
	if *frame < 0 || *frame >= clip.Len() {
		return fmt.Errorf("frame %d outside [0,%d)", *frame, clip.Len())
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := png.Encode(f, clip.Frames[*frame].ToImage()); err != nil {
		return err
	}
	fmt.Printf("wrote %s (frame %d of %q)\n", *out, *frame, clip.Name)
	return nil
}
