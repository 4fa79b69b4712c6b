package server

import (
	"fmt"
	"image/png"
	"net/http"
	"strconv"
	"sync"

	"videodb/internal/storyboard"
	"videodb/internal/video"
)

// MediaSource provides pixel access for image-rendering endpoints.
// *store.Catalog satisfies it.
type MediaSource interface {
	Load(name string) (*video.Clip, error)
}

// WithMedia attaches a media source, enabling
//
//	GET /api/frame?clip=NAME&frame=17       → image/png
//	GET /api/storyboard?clip=NAME&cols=4    → image/png
//
// Loaded clips are cached (a handful at a time) because decoding a VDBF
// per request would dominate latency.
func (s *Server) WithMedia(media MediaSource) *Server {
	s.media = &mediaCache{source: media, clips: make(map[string]*video.Clip)}
	return s
}

// mediaCache is a tiny bounded clip cache.
type mediaCache struct {
	source MediaSource
	mu     sync.Mutex
	clips  map[string]*video.Clip
	order  []string
}

const mediaCacheCap = 4

func (m *mediaCache) load(name string) (*video.Clip, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.clips[name]; ok {
		return c, nil
	}
	c, err := m.source.Load(name)
	if err != nil {
		return nil, err
	}
	if len(m.order) >= mediaCacheCap {
		oldest := m.order[0]
		m.order = m.order[1:]
		delete(m.clips, oldest)
	}
	m.clips[name] = c
	m.order = append(m.order, name)
	return c, nil
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	if s.media == nil {
		WriteError(w, http.StatusNotImplemented, fmt.Errorf("no media source configured"))
		return
	}
	name := r.URL.Query().Get("clip")
	if name == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("need clip parameter"))
		return
	}
	idx, err := strconv.Atoi(r.URL.Query().Get("frame"))
	if err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("parameter frame: %w", err))
		return
	}
	clip, err := s.media.load(name)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	if idx < 0 || idx >= clip.Len() {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("frame %d outside [0,%d)", idx, clip.Len()))
		return
	}
	w.Header().Set("Content-Type", "image/png")
	_ = png.Encode(w, clip.Frames[idx].ToImage())
}

func (s *Server) handleStoryboard(w http.ResponseWriter, r *http.Request) {
	if s.media == nil {
		WriteError(w, http.StatusNotImplemented, fmt.Errorf("no media source configured"))
		return
	}
	name := r.URL.Query().Get("clip")
	if name == "" {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("need clip parameter"))
		return
	}
	rec, ok := s.db.Clip(name)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("clip %q not ingested", name))
		return
	}
	clip, err := s.media.load(name)
	if err != nil {
		WriteError(w, http.StatusNotFound, err)
		return
	}
	opt := storyboard.DefaultOptions()
	if cs := r.URL.Query().Get("cols"); cs != "" {
		cols, err := strconv.Atoi(cs)
		if err != nil || cols < 1 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("parameter cols must be a positive integer"))
			return
		}
		opt.Columns = cols
	}
	board, err := storyboard.ForClip(clip, rec.Tree, opt)
	if err != nil {
		WriteError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	_ = png.Encode(w, board.ToImage())
}
