package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"videodb/internal/core"
)

// postBatch sends a raw batch body and decodes the response when 200.
func postBatch(t *testing.T, url, body string, out *BatchResponseJSON) int {
	t.Helper()
	resp, err := http.Post(url+"/api/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding batch response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestQueryBatch(t *testing.T) {
	ts, db := testServer(t)

	// Compose a batch mixing numeric and impression queries, one of
	// which echoes a real shot so at least one result is non-empty.
	rec, ok := db.Clip("alpha")
	if !ok {
		t.Fatal("clip alpha missing")
	}
	sf := rec.Shots[0].Feature
	body := fmt.Sprintf(`{
		"queries": [
			{"varba": %g, "varoa": %g},
			{"impression": "background=high object=low"},
			{"varba": 0, "varoa": 0}
		]
	}`, sf.VarBA, sf.VarOA)

	var got BatchResponseJSON
	if code := postBatch(t, ts.URL, body, &got); code != http.StatusOK {
		t.Fatalf("status = %d", code)
	}
	if len(got.Results) != 3 {
		t.Fatalf("%d result slices, want 3", len(got.Results))
	}
	if len(got.Results[0]) == 0 {
		t.Error("query echoing a real shot's features matched nothing")
	}
	found := false
	for _, m := range got.Results[0] {
		if m.Clip == "alpha" && m.Shot == 0 {
			found = true
		}
	}
	if !found {
		t.Error("alpha#0 missing from its own feature query")
	}
	for i, rs := range got.Results {
		if rs == nil {
			t.Errorf("results[%d] is null, want [] for empty", i)
		}
	}
}

// TestQueryBatchMatchesSingleQueries pins the batch endpoint to the
// single-query endpoint: same queries, same matches.
func TestQueryBatchMatchesSingleQueries(t *testing.T) {
	ts, _ := testServer(t)
	queries := []struct{ varba, varoa float64 }{{9, 1}, {25, 4}, {0.05, 0.6}}

	parts := make([]string, len(queries))
	for i, q := range queries {
		parts[i] = fmt.Sprintf(`{"varba": %g, "varoa": %g}`, q.varba, q.varoa)
	}
	var batch BatchResponseJSON
	if code := postBatch(t, ts.URL, `{"queries": [`+strings.Join(parts, ",")+`]}`, &batch); code != http.StatusOK {
		t.Fatalf("batch status = %d", code)
	}
	for i, q := range queries {
		var single []MatchJSON
		url := fmt.Sprintf("%s/api/query?varba=%g&varoa=%g", ts.URL, q.varba, q.varoa)
		if code := getJSON(t, url, &single); code != http.StatusOK {
			t.Fatalf("single status = %d", code)
		}
		if len(single) != len(batch.Results[i]) {
			t.Fatalf("query %d: single returned %d, batch %d", i, len(single), len(batch.Results[i]))
		}
		for j := range single {
			if single[j] != batch.Results[i][j] {
				t.Errorf("query %d match %d: %+v vs %+v", i, j, single[j], batch.Results[i][j])
			}
		}
	}
}

func TestQueryBatchTolerances(t *testing.T) {
	ts, _ := testServer(t)
	// A zero-tolerance batch must return a subset of the default one.
	var wide, tight BatchResponseJSON
	if code := postBatch(t, ts.URL, `{"queries": [{"varba": 9, "varoa": 1}]}`, &wide); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if code := postBatch(t, ts.URL, `{"queries": [{"varba": 9, "varoa": 1}], "alpha": 0, "beta": 0}`, &tight); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(tight.Results[0]) > len(wide.Results[0]) {
		t.Errorf("tight tolerances matched more (%d) than defaults (%d)",
			len(tight.Results[0]), len(wide.Results[0]))
	}
}

func TestQueryBatchErrors(t *testing.T) {
	ts, _ := testServer(t)
	big := `{"queries": [` + strings.Repeat(`{"varba": 1, "varoa": 1},`, MaxBatch) +
		`{"varba": 1, "varoa": 1}]}`
	cases := []struct {
		name string
		body string
		want int
	}{
		{"empty body", ``, http.StatusBadRequest},
		{"malformed json", `{"queries": [`, http.StatusBadRequest},
		{"no queries", `{"queries": []}`, http.StatusBadRequest},
		{"oversized batch", big, http.StatusRequestEntityTooLarge},
		{"missing varoa", `{"queries": [{"varba": 1}]}`, http.StatusUnprocessableEntity},
		{"negative variance", `{"queries": [{"varba": -1, "varoa": 1}]}`, http.StatusUnprocessableEntity},
		{"both forms", `{"queries": [{"impression": "bg=high obj=low", "varba": 1, "varoa": 1}]}`, http.StatusUnprocessableEntity},
		{"bad impression", `{"queries": [{"impression": "bg=sideways"}]}`, http.StatusUnprocessableEntity},
		{"negative tolerance", `{"queries": [{"varba": 1, "varoa": 1}], "alpha": -1}`, http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if code := postBatch(t, ts.URL, tc.body, nil); code != tc.want {
				t.Errorf("status = %d, want %d", code, tc.want)
			}
		})
	}
}

// resetReader fails for a reason other than size — a client that hung
// up mid-upload.
type resetReader struct{}

func (resetReader) Read([]byte) (int, error) {
	return 0, errors.New("connection reset by peer")
}

// zeros is an endless body, for building one just over a limit without
// holding it in memory twice.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestBodyReadRefusals: every endpoint that reads a whole body reads it
// through ReadBody, so a body that breaks mid-read is a 400 and only a
// body over the endpoint's limit is a 413.
func TestBodyReadRefusals(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := New(db).Handler()
	for _, ep := range []struct {
		path  string
		limit int64
	}{
		{"/api/query/batch", batchBodyLimit},
		{"/api/replication/clip", maxClipRecord},
	} {
		for _, tc := range []struct {
			name string
			body io.Reader
			want int
		}{
			{"breaks mid-read", io.MultiReader(strings.NewReader(`{"queries": [`), resetReader{}), http.StatusBadRequest},
			{"over the limit", io.LimitReader(zeros{}, ep.limit+1), http.StatusRequestEntityTooLarge},
		} {
			t.Run(ep.path+" "+tc.name, func(t *testing.T) {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ep.path, tc.body))
				if rec.Code != tc.want {
					t.Errorf("status = %d, want %d: %s", rec.Code, tc.want, rec.Body)
				}
			})
		}
	}
}
