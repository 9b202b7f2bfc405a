package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/rockclust/rock/internal/core"
	"github.com/rockclust/rock/internal/dataset"
	"github.com/rockclust/rock/internal/serve"
	"github.com/rockclust/rock/internal/vclock"
)

// vocabStreamModel freezes a small named-item model for the HTTP and
// fuzz tests; built once, shared read-only (frozen models are immutable).
var vocabStreamModel = sync.OnceValue(func() *core.Model {
	g := newRegime(0, 2, 11)
	ts, _ := g.batch(120)
	v := dataset.NewVocabulary()
	d := &dataset.Dataset{Vocab: v}
	for _, tx := range ts {
		items := make([]dataset.Item, len(tx))
		for i, it := range tx {
			items[i] = v.Intern(fmt.Sprintf("i%d", it))
		}
		d.Trans = append(d.Trans, dataset.NewTransaction(items...))
	}
	cfg := core.Config{Theta: soakTheta, K: 2, Seed: 1}
	res, err := core.Cluster(d.Trans, cfg)
	if err != nil {
		panic(err)
	}
	m, err := core.FreezeDataset(d, res, cfg)
	if err != nil {
		panic(err)
	}
	return m
})

// newHTTPStreamer builds a streamer with the detector disabled.
func newHTTPStreamer(t testing.TB) *Streamer {
	t.Helper()
	st, err := New(vocabStreamModel(), Config{
		RefreshThreshold: 2, // the rate never reaches 2: detector off
		Clock:            vclock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamHTTP drives the streamer's HTTP surface end to end: /ingest
// with names and with ids, the validation rejections, /streamz, and the
// embedded serving stack's /assign and /healthz reached through the same
// handler.
func TestStreamHTTP(t *testing.T) {
	st := newHTTPStreamer(t)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	post := func(path, body string) (int, []byte) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	// Names: one in-vocabulary query, one unknown-only query.
	code, body := post("/ingest", `{"queries":[["i0","i1","i2"],["brand-new"]]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest names: status %d: %s", code, body)
	}
	var res IngestResponse
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 2 || res.Generation != 1 {
		t.Fatalf("ingest names response: %+v", res)
	}
	if res.Assignments[1] != -1 {
		t.Fatalf("unknown-only query assigned %d, want -1", res.Assignments[1])
	}

	// IDs.
	code, body = post("/ingest", `{"ids":[[0,1,2]]}`)
	if code != http.StatusOK {
		t.Fatalf("ingest ids: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 1 {
		t.Fatalf("ingest ids response: %+v", res)
	}

	// Rejections: both representations (even both EMPTY — an empty JSON
	// array is still "set"), neither, negative id, bad JSON.
	for name, body := range map[string]string{
		"both":        `{"queries":[["a"]],"ids":[[1]]}`,
		"both empty":  `{"queries":[],"ids":[]}`,
		"neither":     `{}`,
		"negative id": `{"ids":[[-3]]}`,
		"bad json":    `{nope`,
	} {
		if code, _ := post("/ingest", body); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}

	// An empty batch is valid: zero assignments, and the generation in
	// the response is the live one, not a zero value.
	code, body = post("/ingest", `{"ids":[]}`)
	if code != http.StatusOK {
		t.Fatalf("empty batch: status %d: %s", code, body)
	}
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 0 || res.Generation != 1 {
		t.Fatalf("empty batch response: %+v", res)
	}

	// /streamz reflects the two accepted batches (3 points).
	resp, err := http.Get(srv.URL + "/streamz")
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Seen != 3 || stats.Generation != 1 {
		t.Fatalf("streamz: %+v", stats)
	}

	// The embedded serving stack is mounted under the same handler.
	code, body = post("/assign", `{"queries":[["i0","i1","i2"]]}`)
	if code != http.StatusOK {
		t.Fatalf("embedded /assign: status %d: %s", code, body)
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("embedded /healthz: status %d", resp.StatusCode)
	}
}

// TestIngestNamesInternsOnce proves the same unknown name arriving twice
// in one batch is interned exactly once: both occurrences resolve to the
// same fresh id, and the streamer's id space grows by one per distinct
// name, not per occurrence.
func TestIngestNamesInternsOnce(t *testing.T) {
	st := newHTTPStreamer(t)
	before := len(st.names)
	res, err := st.IngestNames([][]string{
		{"never-seen", "i0"},
		{"never-seen", "i1"},
		{"also-new", "also-new"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 3 {
		t.Fatalf("assignments: %+v", res)
	}
	if got := len(st.names) - before; got != 2 {
		t.Fatalf("interned %d new names for 2 distinct unknowns", got)
	}
	id, ok := st.byName["never-seen"]
	if !ok {
		t.Fatal("'never-seen' not interned")
	}
	// A later batch reuses the id rather than re-interning.
	if _, err := st.IngestNames([][]string{{"never-seen"}}); err != nil {
		t.Fatal(err)
	}
	if st.byName["never-seen"] != id || len(st.names)-before != 2 {
		t.Fatalf("'never-seen' re-interned: id %d -> %d, %d new names", id, st.byName["never-seen"], len(st.names)-before)
	}
}

// TestIngestBodyLimit proves oversized request bodies are refused with
// 413 and the standard error envelope on both write endpoints, while
// requests under the cap keep working on the same streamer.
func TestIngestBodyLimit(t *testing.T) {
	st, err := New(vocabStreamModel(), Config{
		Serve:            serve.Config{MaxBodyBytes: 256},
		RefreshThreshold: 2,
		Clock:            vclock.NewFake(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	big := `{"ids":[[` + strings.Repeat("7,", 400) + `7]]}`
	for _, path := range []string{"/ingest", "/assign"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		var env map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatalf("%s: oversize response is not the error envelope: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversize body got status %d, want 413", path, resp.StatusCode)
		}
		if env["error"] == "" {
			t.Fatalf("%s: 413 carries no error message", path)
		}
	}

	// Under the cap: still serving.
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(`{"ids":[[0,1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after 413: status %d", resp.StatusCode)
	}
}

// TestStreamzRefreshError proves a failed refresh's error string reaches
// the /streamz JSON under the documented last_refresh_error key (and is
// omitted entirely while the ledger is clean).
func TestStreamzRefreshError(t *testing.T) {
	st := newHTTPStreamer(t)
	srv := httptest.NewServer(st.Handler())
	defer srv.Close()

	get := func() []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + "/streamz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if body := get(); bytes.Contains(body, []byte("last_refresh_error")) {
		t.Fatalf("clean ledger leaks an empty last_refresh_error: %s", body)
	}
	st.mu.Lock()
	st.lastRefreshErr = "stream: refresh produced no clusters"
	st.mu.Unlock()
	if body := get(); !bytes.Contains(body, []byte(`"last_refresh_error":"stream: refresh produced no clusters"`)) {
		t.Fatalf("failed-refresh error missing from /streamz: %s", body)
	}
}
