package main

import (
	"fmt"
	"runtime"
	"time"

	"videodb/internal/core"
	"videodb/internal/feature"
	"videodb/internal/pyramid"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/varindex"
	"videodb/internal/video"
)

// ingest_pixels: whole passes of core.Ingest over the pixel corpus,
// a fresh database per pass, workers = nproc (the core default).
//
// Roles: op = one clip through Database.Ingest; alt = one whole pass
// (the time until the 22-clip corpus is queryable); ops_per_s = frames
// per second.

// ingestPass ingests every clip in order into a fresh database with
// the given worker bound and returns the per-clip durations.
func ingestPass(clips []*video.Clip, workers int) (*core.Database, []time.Duration, error) {
	db, err := core.Open(core.DefaultOptions(), core.WithParallelism(workers))
	if err != nil {
		return nil, nil, err
	}
	durs := make([]time.Duration, len(clips))
	for i, c := range clips {
		t0 := time.Now()
		if _, err := db.Ingest(c); err != nil {
			return nil, nil, fmt.Errorf("ingesting %q: %w", c.Name, err)
		}
		durs[i] = time.Since(t0)
	}
	return db, durs, nil
}

// sameRecords reports how many of got's clips differ from want's in
// shots, shot ranges, feature values or tree size. The pipeline is
// specified to be bit-identical at any worker count, so the serial
// reference is an exact oracle.
func sameRecords(want, got *core.Database) int {
	bad := 0
	for _, w := range want.Records() {
		g, ok := got.Clip(w.Name)
		if !ok || len(g.Shots) != len(w.Shots) || g.Tree.NodeCount() != w.Tree.NodeCount() {
			bad++
			continue
		}
		for i := range w.Shots {
			if g.Shots[i].Shot != w.Shots[i].Shot || g.Shots[i].RepFrame != w.Shots[i].RepFrame ||
				g.Shots[i].Feature.VarBA != w.Shots[i].Feature.VarBA ||
				g.Shots[i].Feature.VarOA != w.Shots[i].Feature.VarOA {
				bad++
				break
			}
		}
	}
	return bad
}

// shuffled returns clips in a seeded order: the seed's only say in
// this workload, whose pixels are fixed by the corpus definition.
func shuffled(clips []*video.Clip, r *rng) []*video.Clip {
	out := append([]*video.Clip(nil), clips...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

func runIngest(cfg runConfig) (*result, error) {
	res := newResult(cfg.Workload)
	var clips []*video.Clip
	setups := cfg.Size.Setups
	if cfg.Trace {
		setups = 1
	}
	setup, err := repeatSetup(setups, func() (err error) {
		clips, err = synthCorpus(cfg.Size)
		return err
	})
	if err != nil {
		return nil, err
	}
	frames := countFrames(clips)
	clips = shuffled(clips, newRNG(cfg.Seed))
	ref, _, err := ingestPass(clips, 1)
	if err != nil {
		return nil, err
	}
	cfg.logf("corpus: %d clips, %d frames, %d shots", len(clips), frames, ref.ShotCount())
	if cfg.Trace {
		return res, ingestLadder(cfg, res, clips, ref, setup)
	}

	var clipMS, passMS, rates, passClipP50 []float64
	var last *core.Database
	start := time.Now()
	warmEnd := start.Add(cfg.warmup())
	end := warmEnd.Add(cfg.window())
	for time.Now().Before(end) {
		t0 := time.Now()
		db, durs, err := ingestPass(clips, 0)
		if err != nil {
			return nil, err
		}
		pass := time.Since(t0)
		bad := sameRecords(ref, db)
		last = db
		if t0.Before(warmEnd) {
			res.fail(bad, "clip differs from the serial reference (warm-up)", cfg.logf)
			continue
		}
		res.Attempted += len(clips)
		res.fail(bad, "clip differs from the serial reference", cfg.logf)
		var one []float64
		for _, d := range durs {
			clipMS = append(clipMS, ms(d))
			one = append(one, ms(d))
		}
		passClipP50 = append(passClipP50, median(one))
		passMS = append(passMS, ms(pass))
		rates = append(rates, float64(frames)/pass.Seconds())
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("no ingest pass fit in %gs", cfg.Seconds)
	}
	res.Classes["clip"] = summarize(clipMS)
	res.Classes["pass"] = summarize(passMS)
	res.Metrics["setup_s"] = setup
	// A pass is this workload's slice: 22 clips, always the same ones.
	res.Metrics["ops_per_s"] = bestRate(rates)
	res.Metrics["op_p50_ms"] = bestLatency(passClipP50)
	res.Metrics["alt_p50_ms"] = bestLatency(passMS)
	// The decoded corpus stays live on purpose: resident pixels plus
	// the ingested database is what an ingesting process holds.
	res.Metrics["heap_live_mb"] = liveHeapMiB()
	runtime.KeepAlive(clips)
	runtime.KeepAlive(last)
	return res, nil
}

// ingestLadder is the traced run: it calls each ingest layer's public
// functions from outside, frame by frame and clip by clip, mirroring
// what core.Ingest composes, and reports medians of the paired values.
func ingestLadder(cfg runConfig, res *result, clips []*video.Clip, ref *core.Database, setup float64) error {
	tr := newTracer()
	opts := core.DefaultOptions()
	var tbaNS, foaNS, redNS, anNS, anSelfNS []float64
	var detNS, treeUS, shotUS []float64
	var stats sbd.Stats
	var layerSum time.Duration
	shots := 0
	req := 0
	for _, c := range clips {
		an, err := feature.NewAnalyzer(c.Frames[0].W, c.Frames[0].H)
		if err != nil {
			return err
		}
		g := an.Geometry()
		tba, foa := video.NewFrame(g.L, g.W), video.NewFrame(g.B, g.H)
		red := pyramid.NewReducer(max(g.L, g.B), max(g.W, g.H))
		sig := make([]video.Pixel, g.L)
		feats := make([]feature.FrameFeature, len(c.Frames))
		// The whole first, over every frame, then its parts in a second
		// sweep: interleaving them would hand Analyze a cache the parts
		// had just warmed (or evicted).
		whole := make([]time.Duration, len(c.Frames))
		ids := make([]int, len(c.Frames))
		for i, f := range c.Frames {
			t0 := time.Now()
			feats[i] = an.Analyze(f)
			t1 := time.Now()
			whole[i] = t1.Sub(t0)
			ids[i] = tr.add("feature.analyze", 0, req+i+1, t0, t1)
			layerSum += whole[i]
		}
		for i, f := range c.Frames {
			req++
			t1 := time.Now()
			g.TBAInto(f, tba)
			t2 := time.Now()
			red.Reduce(tba, sig)
			t3 := time.Now()
			g.FOAInto(f, foa)
			t4 := time.Now()
			red.Sign(foa)
			t5 := time.Now()
			tr.add("region.tba", ids[i], req, t1, t2)
			tr.add("pyramid.reduce", ids[i], req, t2, t3)
			tr.add("region.foa", ids[i], req, t3, t4)
			tr.add("pyramid.reduce", ids[i], req, t4, t5)
			tbaD, foaD := t2.Sub(t1), t4.Sub(t3)
			redD := t3.Sub(t2) + t5.Sub(t4)
			tbaNS = append(tbaNS, float64(tbaD))
			foaNS = append(foaNS, float64(foaD))
			redNS = append(redNS, float64(redD))
			anNS = append(anNS, float64(whole[i]))
			anSelfNS = append(anSelfNS, float64(whole[i]-tbaD-foaD-redD))
		}
		det, err := sbd.NewCameraTracking(opts.SBD, an)
		if err != nil {
			return err
		}
		t0 := time.Now()
		bounds, st := det.DetectFeatures(feats)
		t1 := time.Now()
		ss := sbd.ShotsFromBoundaries(bounds, len(feats))
		tree, err := scenetree.Build(opts.Tree, feats, ss)
		if err != nil {
			return err
		}
		t2 := time.Now()
		for _, s := range ss {
			feature.ShotFeatureFromFrames(feats, s.Start, s.End)
		}
		t3 := time.Now()
		req++
		tr.add("sbd.detect", 0, req, t0, t1)
		tr.add("scenetree.build", 0, req, t1, t2)
		tr.add("feature.shot", 0, req, t2, t3)
		detNS = append(detNS, float64(t1.Sub(t0))/float64(len(feats)))
		treeUS = append(treeUS, us(t2.Sub(t1))/float64(len(ss)))
		shotUS = append(shotUS, us(t3.Sub(t2))/float64(len(ss)))
		layerSum += t3.Sub(t0)
		stats.Pairs += st.Pairs
		stats.BySign += st.BySign
		stats.BySig += st.BySig
		shots += len(ss)
		if tree.NodeCount() == 0 {
			return fmt.Errorf("empty scene tree for %q", c.Name)
		}
	}

	// Index build over the corpus's own entries, scaled to 1,000 shots.
	var entries []varindex.Entry
	for _, rec := range ref.Records() {
		for k, sr := range rec.Shots {
			entries = append(entries, varindex.Entry{Clip: rec.Name, Shot: k,
				Start: sr.Shot.Start, End: sr.Shot.End,
				VarBA: sr.Feature.VarBA, VarOA: sr.Feature.VarOA})
		}
	}
	var buildUS []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		ix := varindex.New()
		for _, e := range entries {
			ix.Add(e)
		}
		ix.Build()
		buildUS = append(buildUS, us(time.Since(t0))*1000/float64(len(entries)))
	}
	layerSum += time.Duration(median(buildUS) * float64(len(entries)) / 1000 * float64(time.Microsecond))

	// Whole passes, serial and parallel alternately, for as long as the
	// window lasts; allocations are bracketed around the serial ones.
	frames := countFrames(clips)
	var serialS, parallelMS, allocs, bytes []float64
	end := time.Now().Add(cfg.window())
	for time.Now().Before(end) || len(serialS) == 0 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		db, _, err := ingestPass(clips, 1)
		if err != nil {
			return err
		}
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		tr.add("core.ingest_pass_serial", 0, 0, t0, t1)
		serialS = append(serialS, t1.Sub(t0).Seconds())
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(frames))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(frames))
		res.Attempted += len(clips)
		res.fail(sameRecords(ref, db), "serial pass differs from the reference", cfg.logf)

		t0 = time.Now()
		db, _, err = ingestPass(clips, 0)
		if err != nil {
			return err
		}
		t1 = time.Now()
		tr.add("core.ingest_pass", 0, 0, t0, t1)
		parallelMS = append(parallelMS, ms(t1.Sub(t0)))
		res.Attempted += len(clips)
		res.fail(sameRecords(ref, db), "parallel pass differs from the serial reference", cfg.logf)
	}
	serial := median(serialS)

	m := res.Metrics
	m["region.tba_ns_per_frame"] = median(tbaNS)
	m["region.foa_ns_per_frame"] = median(foaNS)
	m["pyramid.reduce_ns_per_frame"] = median(redNS)
	m["feature.analyze_ns_per_frame"] = median(anNS)
	m["feature.analyze_self_ns_per_frame"] = median(anSelfNS)
	m["feature.shot_us_per_shot"] = median(shotUS)
	m["sbd.detect_ns_per_frame"] = median(detNS)
	m["sbd.stage2_ratio"] = float64(stats.Pairs-stats.BySign) / float64(stats.Pairs)
	m["sbd.stage3_ratio"] = float64(stats.Pairs-stats.BySign-stats.BySig) / float64(stats.Pairs)
	m["scenetree.build_us_per_shot"] = median(treeUS)
	m["varindex.build_us_per_kshot"] = median(buildUS)
	m["core.ingest_self_ns_per_frame"] = (serial*1e9 - float64(layerSum)) / float64(frames)
	m["core.ingest_parallel_speedup"] = serial * 1e3 / median(parallelMS)
	m["core.ingest_allocs_per_frame"] = median(allocs)
	m["core.ingest_bytes_per_frame"] = median(bytes)
	m["core.ingest_pass_p50_ms"] = median(parallelMS)
	m["gen.inputs_s"] = setup
	// Spans here are recorded around direct calls, with nothing else
	// running: there is no untraced counterpart to compare against.
	m["trace.overhead_ratio"] = 1
	tr.count("frames", float64(frames))
	tr.count("shots", float64(shots))
	tr.count("sbd.pairs", float64(stats.Pairs))
	tr.count("sbd.pairs_past_stage1", float64(stats.Pairs-stats.BySign))
	tr.count("sbd.pairs_past_stage2", float64(stats.Pairs-stats.BySign-stats.BySig))
	return tr.write(cfg)
}
