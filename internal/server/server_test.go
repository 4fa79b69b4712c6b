package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"videodb/internal/core"
	"videodb/internal/synth"
	"videodb/internal/varindex"
)

func testServer(t *testing.T) (*httptest.Server, *core.Database) {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, name := range []string{"alpha", "beta"} {
		spec, err := synth.BuildClip(synth.GenreDrama, synth.ClipParams{
			Name: name, Shots: 8, DurationSec: 40, Seed: uint64(500 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		clip, _, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Ingest(clip); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(db).Handler())
	t.Cleanup(ts.Close)
	return ts, db
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestListClips(t *testing.T) {
	ts, _ := testServer(t)
	var clips []ClipSummary
	if code := getJSON(t, ts.URL+"/api/clips", &clips); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(clips) != 2 || clips[0].Name != "alpha" || clips[1].Name != "beta" {
		t.Fatalf("clips = %+v", clips)
	}
	if clips[0].Shots == 0 || clips[0].Frames == 0 {
		t.Errorf("empty summary: %+v", clips[0])
	}
}

func TestGetClip(t *testing.T) {
	ts, db := testServer(t)
	var got struct {
		ClipSummary
		ShotTable []ShotJSON `json:"shotTable"`
	}
	if code := getJSON(t, ts.URL+"/api/clips/alpha", &got); code != 200 {
		t.Fatalf("status %d", code)
	}
	rec, _ := db.Clip("alpha")
	if len(got.ShotTable) != len(rec.Shots) {
		t.Fatalf("shot table has %d rows, want %d", len(got.ShotTable), len(rec.Shots))
	}
	if got.ShotTable[0].End < got.ShotTable[0].Start {
		t.Error("invalid shot range")
	}
	if code := getJSON(t, ts.URL+"/api/clips/missing", nil); code != 404 {
		t.Errorf("missing clip returned %d", code)
	}
}

func TestGetTree(t *testing.T) {
	ts, db := testServer(t)
	var root NodeJSON
	if code := getJSON(t, ts.URL+"/api/clips/beta/tree", &root); code != 200 {
		t.Fatalf("status %d", code)
	}
	rec, _ := db.Clip("beta")
	if root.Level != rec.Tree.Height() {
		t.Errorf("root level %d, want %d", root.Level, rec.Tree.Height())
	}
	// Leaf count in JSON equals shot count.
	var countLeaves func(n NodeJSON) int
	countLeaves = func(n NodeJSON) int {
		if len(n.Children) == 0 {
			return 1
		}
		total := 0
		for _, c := range n.Children {
			total += countLeaves(c)
		}
		return total
	}
	if got := countLeaves(root); got != len(rec.Shots) {
		t.Errorf("tree has %d leaves, want %d", got, len(rec.Shots))
	}
	if code := getJSON(t, ts.URL+"/api/clips/missing/tree", nil); code != 404 {
		t.Errorf("missing clip tree returned %d", code)
	}
}

func TestQueryByVariance(t *testing.T) {
	ts, db := testServer(t)
	rec, _ := db.Clip("alpha")
	sf := rec.Shots[0].Feature
	u := fmt.Sprintf("%s/api/query?varba=%f&varoa=%f", ts.URL, sf.VarBA, sf.VarOA)
	var matches []MatchJSON
	if code := getJSON(t, u, &matches); code != 200 {
		t.Fatalf("status %d", code)
	}
	found := false
	for _, m := range matches {
		if m.Clip == "alpha" && m.Shot == 0 {
			found = true
			if m.Scene == "" {
				t.Error("match missing scene")
			}
		}
	}
	if !found {
		t.Errorf("self-query missed the shot: %+v", matches)
	}
}

func TestQueryByImpression(t *testing.T) {
	ts, _ := testServer(t)
	u := ts.URL + "/api/query?impression=" + url.QueryEscape("bg=none obj=low")
	var matches []MatchJSON
	if code := getJSON(t, u, &matches); code != 200 {
		t.Fatalf("status %d", code)
	}
	// Result set validity, not size: every match echoes real features.
	for _, m := range matches {
		if m.End < m.Start {
			t.Errorf("invalid match %+v", m)
		}
	}
	if code := getJSON(t, ts.URL+"/api/query?impression=bad", nil); code != 400 {
		t.Error("bad impression accepted")
	}
}

func TestQueryValidation(t *testing.T) {
	ts, _ := testServer(t)
	cases := []string{
		"/api/query",                 // missing params
		"/api/query?varba=x&varoa=1", // non-numeric
		"/api/query?varba=1&varoa=1&alpha=x" /* bad alpha */}
	for _, c := range cases {
		if code := getJSON(t, ts.URL+c, nil); code != 400 {
			t.Errorf("%s returned %d, want 400", c, code)
		}
	}
}

func TestSimilar(t *testing.T) {
	ts, _ := testServer(t)
	var matches []MatchJSON
	if code := getJSON(t, ts.URL+"/api/similar?clip=alpha&shot=0&k=2", &matches); code != 200 {
		t.Fatalf("status %d", code)
	}
	if len(matches) > 2 {
		t.Errorf("got %d matches, want <= 2", len(matches))
	}
	for _, m := range matches {
		if m.Clip == "alpha" && m.Shot == 0 {
			t.Error("similar returned the query shot")
		}
	}
	if code := getJSON(t, ts.URL+"/api/similar?clip=missing&shot=0", nil); code != 404 {
		t.Error("missing clip accepted")
	}
	if code := getJSON(t, ts.URL+"/api/similar?shot=0", nil); code != 400 {
		t.Error("missing clip param accepted")
	}
	if code := getJSON(t, ts.URL+"/api/similar?clip=alpha&shot=x", nil); code != 400 {
		t.Error("bad shot accepted")
	}
	if code := getJSON(t, ts.URL+"/api/similar?clip=alpha&shot=0&k=-1", nil); code != 400 {
		t.Error("bad k accepted")
	}
}

// TestSimilarKBeyondNeighbours: k bounds the answer and never sizes
// anything. A k far beyond the neighbour count — one that used to be
// handed to make() as a capacity and end the process — answers 200
// with every neighbour.
func TestSimilarKBeyondNeighbours(t *testing.T) {
	ts, db := testServer(t)
	rec, _ := db.Clip("alpha")
	f := rec.Shots[0].Feature
	all, err := db.Query(varindex.Query{VarBA: f.VarBA, VarOA: f.VarOA, MeanBA: f.MeanBA})
	if err != nil {
		t.Fatal(err)
	}
	neighbours := len(all) - 1 // every match but alpha#0 itself
	if neighbours < 1 {
		t.Fatal("alpha#0 has no neighbours; the test needs a non-empty answer")
	}
	for _, k := range []string{strconv.Itoa(math.MaxInt64), "100000000000"} {
		var matches []MatchJSON
		if code := getJSON(t, ts.URL+"/api/similar?clip=alpha&shot=0&k="+k, &matches); code != 200 {
			t.Fatalf("k=%s: status %d, want 200", k, code)
		}
		if len(matches) != neighbours {
			t.Errorf("k=%s: %d matches, want all %d neighbours", k, len(matches), neighbours)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := testServer(t)
	req, err := http.NewRequest(http.MethodPut, ts.URL+"/api/clips", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT returned %d", resp.StatusCode)
	}
}

func TestIndexPage(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("index returned %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"videodb", "/api/clips", "impression"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("index page missing %q", want)
		}
	}
	// Unknown paths under / are 404, not the index page.
	r2, err := http.Get(ts.URL + "/nonsense")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusNotFound {
		t.Errorf("/nonsense returned %d", r2.StatusCode)
	}
}
