package cluster

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"videodb/internal/server"
)

// failingBody is a request body whose read fails for a reason other
// than size — a client that hung up mid-upload.
type failingBody struct{}

func (failingBody) Read([]byte) (int, error) { return 0, errors.New("connection reset by peer") }

// TestWireContractMatchesNode sends one table of well-formed and
// malformed GET /api/query and POST /api/query/batch requests to a
// single node and to a coordinator over three shards. The coordinator
// must refuse exactly what a node refuses — same status, same error
// text — and must do so before fanning out: a refused request costs no
// shard request.
func TestWireContractMatchesNode(t *testing.T) {
	tc := newTestCluster(t, 3, makeClips(t, 3))
	node := server.New(tc.union).Handler()
	coord := tc.coord.Handler()

	shardRequests := func() string {
		rec := httptest.NewRecorder()
		coord.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/metrics", nil))
		for _, line := range strings.Split(rec.Body.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "videodb_coord_shard_requests_total "); ok {
				return v
			}
		}
		t.Fatal("coordinator exposes no videodb_coord_shard_requests_total")
		return ""
	}
	batchOf := func(n int) string {
		return `{"queries":[` + strings.TrimSuffix(strings.Repeat(`{"varba":1,"varoa":1},`, n), ",") + `]}`
	}
	get := func(rawQuery string) *http.Request {
		return httptest.NewRequest(http.MethodGet, "/api/query?"+rawQuery, nil)
	}
	post := func(body io.Reader) *http.Request {
		return httptest.NewRequest(http.MethodPost, "/api/query/batch", body)
	}

	for _, tt := range []struct {
		name string
		req  func() *http.Request
		want int
	}{
		{"point", func() *http.Request { return get("varba=25&varoa=25") }, 200},
		{"point with tolerances", func() *http.Request { return get("varba=25&varoa=25&alpha=2&beta=0.5") }, 200},
		{"impression", func() *http.Request { return get("impression=" + url.QueryEscape("bg=high obj=low")) }, 200},
		{"no parameters", func() *http.Request { return get("") }, 400},
		{"varoa missing", func() *http.Request { return get("varba=25") }, 400},
		{"varba not a number", func() *http.Request { return get("varba=abc&varoa=1") }, 400},
		{"negative variance", func() *http.Request { return get("varba=-1&varoa=4") }, 400},
		{"NaN variance", func() *http.Request { return get("varba=NaN&varoa=4") }, 400},
		{"alpha not a number", func() *http.Request { return get("varba=25&varoa=25&alpha=abc") }, 400},
		{"negative beta", func() *http.Request { return get("varba=25&varoa=25&beta=-1") }, 400},
		{"bad impression", func() *http.Request { return get("impression=nonsense") }, 400},

		{"batch", func() *http.Request { return post(strings.NewReader(batchOf(3))) }, 200},
		{"batch with impression and tolerances", func() *http.Request {
			return post(strings.NewReader(`{"queries":[{"impression":"bg=high obj=low"},{"varba":9,"varoa":4}],"alpha":2,"beta":2}`))
		}, 200},
		{"batch at the size limit", func() *http.Request { return post(strings.NewReader(batchOf(server.MaxBatch))) }, 200},
		{"batch empty body", func() *http.Request { return post(strings.NewReader("")) }, 400},
		{"batch malformed JSON", func() *http.Request { return post(strings.NewReader(`{"queries":[`)) }, 400},
		{"batch without queries", func() *http.Request { return post(strings.NewReader(`{"queries":[]}`)) }, 400},
		{"batch body read fails", func() *http.Request { return post(failingBody{}) }, 400},
		{"batch body over 1 MiB", func() *http.Request {
			return post(strings.NewReader(`{"queries":[],"pad":"` + strings.Repeat("x", 1<<20) + `"}`))
		}, 413},
		{"batch over the size limit", func() *http.Request { return post(strings.NewReader(batchOf(server.MaxBatch + 1))) }, 413},
		{"batch entry with impression and variances", func() *http.Request {
			return post(strings.NewReader(`{"queries":[{"impression":"bg=high obj=low","varba":1,"varoa":1}]}`))
		}, 422},
		{"batch entry with negative variance", func() *http.Request {
			return post(strings.NewReader(`{"queries":[{"varba":1,"varoa":1},{"varba":-1,"varoa":1}]}`))
		}, 422},
		{"batch entry missing varoa", func() *http.Request { return post(strings.NewReader(`{"queries":[{"varba":1}]}`)) }, 422},
		{"batch entry with bad impression", func() *http.Request {
			return post(strings.NewReader(`{"queries":[{"impression":"nonsense"}]}`))
		}, 422},
		{"batch with negative alpha", func() *http.Request {
			return post(strings.NewReader(`{"queries":[{"varba":1,"varoa":1}],"alpha":-1}`))
		}, 422},
	} {
		t.Run(tt.name, func(t *testing.T) {
			answer := func(h http.Handler) (int, string) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, tt.req())
				var doc struct {
					Error string `json:"error"`
				}
				if rec.Code != http.StatusOK {
					if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
						t.Fatalf("status %d with a body that is not JSON: %v\n%s", rec.Code, err, rec.Body)
					}
				}
				return rec.Code, doc.Error
			}
			before := shardRequests()
			nodeCode, nodeErr := answer(node)
			coordCode, coordErr := answer(coord)
			if nodeCode != tt.want {
				t.Errorf("node answered %d (%q), want %d", nodeCode, nodeErr, tt.want)
			}
			if coordCode != nodeCode || coordErr != nodeErr {
				t.Errorf("coordinator answered %d %q, the node %d %q", coordCode, coordErr, nodeCode, nodeErr)
			}
			if after := shardRequests(); tt.want != http.StatusOK && after != before {
				t.Errorf("a refused request reached the shards: shard_requests %s -> %s", before, after)
			}
		})
	}
	if shardRequests() == "0" {
		t.Error("the well-formed rows never fanned out")
	}
}

// TestReshardBodyRefusals: POST /api/cluster/reshard reads its body
// through server.ReadBody like the batch rows above — a body that
// breaks mid-read is a 400, only one over the 1 MiB limit is a 413.
func TestReshardBodyRefusals(t *testing.T) {
	coord := newTestCluster(t, 2, nil).coord.Handler()
	for _, tt := range []struct {
		name string
		body io.Reader
		want int
	}{
		{"breaks mid-read", io.MultiReader(strings.NewReader(`{"add":[`), failingBody{}), 400},
		{"over 1 MiB", strings.NewReader(`{"pad":"` + strings.Repeat("x", 1<<20) + `"}`), 413},
	} {
		t.Run(tt.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			coord.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/cluster/reshard", tt.body))
			if rec.Code != tt.want {
				t.Errorf("status = %d, want %d: %s", rec.Code, tt.want, rec.Body)
			}
		})
	}
}
