package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"videodb/internal/core"
	"videodb/internal/store"
	"videodb/internal/video"
)

// handleIngest implements POST /api/clips: a live upload of a VDBF or
// YUV4MPEG2 clip, analyzed and added to the database while queries keep
// flowing. The format is sniffed from the stream's magic; a Y4M upload
// needs ?name= because the container carries none (the same parameter
// overrides a VDBF clip's embedded name). Each clip's analysis fans out
// across the database's worker budget internally, so concurrent upload
// analyses are capped at two — one analyzing while the next parses its
// upload — instead of one slot per worker. The request context is
// threaded into the analysis pipeline: an abandoned upload or a server
// shutdown cancels the in-flight analysis instead of burning CPU on a
// result nobody will read.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.refuseReadOnly(w) {
		return
	}
	if s.maxBody > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	s.ingestSem <- struct{}{}
	defer func() { <-s.ingestSem }()

	name := r.URL.Query().Get("name")
	br := bufio.NewReader(r.Body)
	magic, _ := br.Peek(len("YUV4MPEG2"))
	var clip *video.Clip
	var err error
	switch {
	case bytes.HasPrefix(magic, []byte(store.Magic)):
		clip, err = store.ReadClip(br)
		if err == nil && name != "" {
			clip.Name = name
		}
	case bytes.HasPrefix(magic, []byte("YUV4MPEG2")):
		if name == "" {
			WriteError(w, http.StatusBadRequest,
				fmt.Errorf("y4m upload needs a ?name= parameter"))
			return
		}
		clip, err = store.ReadY4M(br, name)
	default:
		WriteError(w, http.StatusBadRequest,
			fmt.Errorf("unrecognized upload: want a VDBF or YUV4MPEG2 body"))
		return
	}
	if err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		WriteError(w, code, err)
		return
	}

	rec, err := s.db.IngestContext(r.Context(), clip)
	if err != nil {
		code := http.StatusUnprocessableEntity
		switch {
		case errors.Is(err, core.ErrDuplicate):
			code = http.StatusConflict
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// Client gone or server draining: the analysis was aborted
			// mid-pipeline, nothing was committed.
			code = http.StatusServiceUnavailable
		}
		WriteError(w, code, err)
		return
	}
	s.metrics.ingests.Add(1)
	s.metrics.ingestFrames.Add(int64(rec.Frames))
	st := rec.Pipeline // listed in ingestPhases order
	for i, seconds := range [len(ingestPhases)]float64{st.AnalyzeSeconds, st.DetectSeconds, st.IndexSeconds, st.TreeSeconds} {
		s.metrics.ingestPhaseNanos[i].Add(int64(seconds * 1e9))
	}
	s.setWalPosition(w.Header())
	writeJSONStatus(w, http.StatusCreated, ClipSummary{
		Name: rec.Name, Frames: rec.Frames, FPS: rec.FPS,
		Shots: len(rec.Shots), TreeHeight: rec.Tree.Height(),
	})
}

// handleRemove implements DELETE /api/clips/{name}.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	if s.refuseReadOnly(w) {
		return
	}
	name := r.PathValue("name")
	if err := s.db.Remove(name); err != nil {
		code := http.StatusInternalServerError
		if errors.Is(err, core.ErrNotFound) {
			code = http.StatusNotFound
		}
		WriteError(w, code, err)
		return
	}
	s.metrics.removes.Add(1)
	s.setWalPosition(w.Header())
	WriteJSON(w, map[string]string{"removed": name})
}

// setWalPosition puts the journal's generation and position on a
// write's answer, so a coordinator knows how far a replica must have
// read before it can serve the write.
func (s *Server) setWalPosition(h http.Header) {
	if s.journal == nil {
		return
	}
	h.Set(HeaderWalGen, s.journal.Gen())
	h.Set(HeaderWalSize, strconv.FormatInt(s.journal.Size(), 10))
}

// handleSnapshot implements POST /api/snapshot: flush the memtable into
// an immutable segment. The flush captures memtable + tombstones + WAL
// cut under one lock hold, then releases it, so queries (and further
// mutations) keep flowing while the segment writes; the store writes the
// file atomically, commits the manifest and rotates exactly the captured
// journal prefix, so an acknowledged write is never lost.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.refuseReadOnly(w) {
		return
	}
	if s.storage == nil {
		WriteError(w, http.StatusNotImplemented,
			fmt.Errorf("no segment store configured"))
		return
	}
	res, err := s.storage.Flush()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	s.metrics.snapshots.Add(1)
	s.metrics.snapshotLastUnix.Store(time.Now().Unix())
	WriteJSON(w, map[string]any{
		"flushed":        res.Flushed,
		"segment":        res.SegmentID,
		"clips":          res.Clips,
		"tombstones":     res.Tombstones,
		"bytes":          res.Bytes,
		"rotatedJournal": res.Rotated,
	})
}
