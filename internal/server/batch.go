package server

import (
	"encoding/json"
	"fmt"
	"net/http"

	"videodb/internal/impression"
	"videodb/internal/varindex"
)

// MaxBatch bounds the number of queries one POST /api/query/batch
// request may carry. It is part of the wire contract, not a per-process
// setting: a node and the coordinator in front of it must agree on it.
const MaxBatch = 1000

// batchBodyLimit caps a batch request body. Batches are pure JSON —
// even a maximal one is well under a mebibyte — so anything larger is
// a client error, not a workload.
const batchBodyLimit = 1 << 20

// BatchQueryJSON is one query of a batch request: either an impression
// string or a numeric (varba, varoa) pair, mirroring GET /api/query.
type BatchQueryJSON struct {
	Impression string   `json:"impression,omitempty"`
	VarBA      *float64 `json:"varba,omitempty"`
	VarOA      *float64 `json:"varoa,omitempty"`
}

// BatchRequestJSON is the body of POST /api/query/batch. Alpha and
// Beta default to the database's configured tolerances when omitted.
type BatchRequestJSON struct {
	Queries []BatchQueryJSON `json:"queries"`
	Alpha   *float64         `json:"alpha,omitempty"`
	Beta    *float64         `json:"beta,omitempty"`
}

// toQuery validates one batch entry and converts it to an index query.
func (b BatchQueryJSON) toQuery(i int) (varindex.Query, error) {
	if b.Impression != "" {
		if b.VarBA != nil || b.VarOA != nil {
			return varindex.Query{}, fmt.Errorf("query %d: give impression or varba/varoa, not both", i)
		}
		im, err := impression.Parse(b.Impression)
		if err != nil {
			return varindex.Query{}, fmt.Errorf("query %d: %w", i, err)
		}
		return im.Query(), nil
	}
	if b.VarBA == nil || b.VarOA == nil {
		return varindex.Query{}, fmt.Errorf("query %d: need varba and varoa (or impression)", i)
	}
	if *b.VarBA < 0 || *b.VarOA < 0 {
		return varindex.Query{}, fmt.Errorf("query %d: negative variance", i)
	}
	return varindex.Query{VarBA: *b.VarBA, VarOA: *b.VarOA}, nil
}

// Batch is a validated POST /api/query/batch request.
type Batch struct {
	Body    []byte // the request body verbatim, for a coordinator to forward
	Queries []varindex.Query
	Options varindex.Options
}

// ReadBatch reads and validates a batch request, with tolerances
// defaulting to def. On failure it returns the status to refuse with:
// 400 for an unreadable, empty or malformed body, 413 for a body or batch
// over its size limit, 422 for a body that parses but whose tolerances or
// queries are semantically invalid. The coordinator validates with the
// same function before it fans out.
func ReadBatch(w http.ResponseWriter, r *http.Request, def varindex.Options) (*Batch, int, error) {
	body, code, err := ReadBody(w, r, batchBodyLimit)
	if err != nil {
		return nil, code, fmt.Errorf("reading batch body: %w", err)
	}
	if len(body) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("empty batch body")
	}
	var req BatchRequestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("decoding batch body: %w", err)
	}
	if len(req.Queries) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("batch has no queries")
	}
	if len(req.Queries) > MaxBatch {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d queries exceeds the limit of %d", len(req.Queries), MaxBatch)
	}
	b := &Batch{Body: body, Queries: make([]varindex.Query, len(req.Queries)), Options: def}
	if req.Alpha != nil {
		b.Options.Alpha = *req.Alpha
	}
	if req.Beta != nil {
		b.Options.Beta = *req.Beta
	}
	if err := b.Options.Validate(); err != nil {
		return nil, http.StatusUnprocessableEntity, err
	}
	for i, bq := range req.Queries {
		if b.Queries[i], err = bq.toQuery(i); err != nil {
			return nil, http.StatusUnprocessableEntity, err
		}
	}
	return b, 0, nil
}

// handleQueryBatch implements POST /api/query/batch: many similarity
// queries answered in one round trip, all from one pinned view of the
// database (reads take no lock), amortizing the HTTP overhead of bulk
// lookups.
func (s *Server) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	b, code, err := ReadBatch(w, r, s.db.Options().Query)
	if err != nil {
		WriteError(w, code, err)
		return
	}
	batches, err := s.db.QueryBatch(b.Queries, b.Options)
	if err != nil {
		WriteError(w, http.StatusUnprocessableEntity, err)
		return
	}
	s.metrics.batches.Add(1)
	s.metrics.batchQueries.Add(int64(len(b.Queries)))
	n := 0
	for _, matches := range batches {
		n += len(matches)
	}
	body := append(make([]byte, 0, matchBytes*n+3*len(batches)+16), `{"results":[`...)
	for i, matches := range batches {
		if i > 0 {
			body = append(body, ',')
		}
		body = AppendMatches(body, matches)
	}
	WriteJSONBody(w, append(body, "]}\n"...))
}
