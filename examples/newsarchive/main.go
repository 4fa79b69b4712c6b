// Newsarchive: batch-ingest a simulated broadcast-news archive into a
// segment store, reopen it, and answer "find me shots like
// this anchor segment" queries — the workflow the paper's introduction
// motivates for digital libraries and public information systems.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"videodb/internal/core"
	"videodb/internal/segstore"
	"videodb/internal/synth"
	"videodb/internal/video"
)

func main() {
	// 1. Simulate a week of news recordings (scaled down so the example
	//    runs in seconds).
	var clips []*video.Clip
	days := []string{"monday", "tuesday", "wednesday", "thursday", "friday"}
	for i, day := range days {
		spec, err := synth.BuildClip(synth.GenreNews, synth.ClipParams{
			Name:        "news-" + day,
			Shots:       16,
			DurationSec: 90,
			Seed:        uint64(300 + i),
		})
		if err != nil {
			log.Fatal(err)
		}
		clip, _, err := synth.Generate(spec)
		if err != nil {
			log.Fatal(err)
		}
		clips = append(clips, clip)
	}

	// 2. Batch ingestion into a segment store (vdbserver -data serves
	// the same directory). IngestAll joins every per-clip failure into
	// one error, so a partial batch failure names each failing clip.
	dir, err := os.MkdirTemp("", "newsarchive-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	opts := segstore.Options{Core: core.DefaultOptions()}
	st, err := segstore.Open(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	db := st.DB()
	start := time.Now()
	if err := db.IngestAll(clips); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ingested %d broadcasts (%d shots) in %v\n",
		db.ClipCount(), db.ShotCount(), time.Since(start).Round(time.Millisecond))

	// 3. Flush the analysis into an immutable segment and reopen the
	//    store — the archive's index survives restarts without
	//    re-analyzing any video.
	res, err := st.Flush()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("segment size: %d bytes (pixels are not stored)\n", res.Bytes)
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
	st2, err := segstore.Open(dir, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	db2 := st2.DB()

	// 4. An archivist picks a reference shot from Monday's broadcast
	//    (say, the anchor-desk segment: the first shot) and asks for
	//    similar shots across the whole archive.
	rec, ok := db2.Clip("news-monday")
	if !ok {
		log.Fatal("monday broadcast missing")
	}
	fmt.Printf("\nreference: %q shot 0, frames %d-%d (VarBA=%.2f VarOA=%.2f)\n",
		rec.Name, rec.Shots[0].Shot.Start, rec.Shots[0].Shot.End,
		rec.Shots[0].Feature.VarBA, rec.Shots[0].Feature.VarOA)

	matches, err := db2.QueryByShot("news-monday", 0, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d similar shots across the archive:\n", len(matches))
	for _, m := range matches {
		fmt.Printf("  %-16q shot %2d  frames %4d-%4d  start browsing at %s\n",
			m.Entry.Clip, m.Entry.Shot, m.Entry.Start, m.Entry.End, m.Scene.Name())
	}

	// 5. Show a browsing hierarchy for one broadcast: the entry point
	//    for editors scanning the day's coverage non-linearly.
	tree, err := db2.Browse("news-friday")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfriday's scene tree (height %d, %d nodes):\n%s",
		tree.Height(), tree.NodeCount(), tree)
}
