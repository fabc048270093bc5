package sqlts

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlts/internal/obs"
)

// TestDebugHandlerSmoke drives every endpoint of the /debug surface
// against a DB with live traffic: the CI debug-surface smoke step runs
// exactly this test.
func TestDebugHandlerSmoke(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	db.SetSlowQueryThreshold(time.Nanosecond)
	var sunk bytes.Buffer
	db.SetEventSink(obs.NewWriterSink(&sunk))
	if _, err := db.Query(introspectSQL1); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Index page lists the surface.
	code, body := get("/")
	if code != http.StatusOK || !strings.Contains(body, "/debug/statements") || strings.Contains(body, "/debug/shards") {
		t.Errorf("index: code %d body:\n%s", code, body)
	}

	// /metrics: exposition plus on-demand runtime sampling.
	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics returned %d", code)
	}
	for _, want := range []string{
		"sqlts_queries_total 1",
		"sqlts_pred_evals_total",
		"sqlts_goroutines", // runtime gauge sampled per scrape
		"sqlts_heap_alloc_bytes",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// /debug/statements JSON mirrors the Result counters.
	code, body = get("/debug/statements")
	if code != http.StatusOK {
		t.Fatalf("/debug/statements returned %d", code)
	}
	var stmts struct {
		Statements []struct {
			SQL       string `json:"sql"`
			Calls     int64  `json:"calls"`
			PredEvals int64  `json:"pred_evals"`
		} `json:"statements"`
	}
	if err := json.Unmarshal([]byte(body), &stmts); err != nil {
		t.Fatalf("/debug/statements is not valid JSON: %v\n%s", err, body)
	}
	if len(stmts.Statements) != 1 || stmts.Statements[0].Calls != 1 {
		t.Fatalf("/debug/statements content wrong:\n%s", body)
	}
	if got, want := stmts.Statements[0].PredEvals, db.statementTotals().PredEvals; got != want {
		t.Errorf("/debug/statements pred_evals = %d, store says %d", got, want)
	}
	code, body = get("/debug/statements?format=text")
	if code != http.StatusOK || !strings.Contains(body, "statement") {
		t.Errorf("/debug/statements?format=text: code %d body:\n%s", code, body)
	}

	// /debug/slowlog holds the over-threshold run.
	code, body = get("/debug/slowlog")
	if code != http.StatusOK {
		t.Fatalf("/debug/slowlog returned %d", code)
	}
	var slow struct {
		SlowQueries []map[string]any `json:"slow_queries"`
	}
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("/debug/slowlog is not valid JSON: %v\n%s", err, body)
	}
	if len(slow.SlowQueries) != 1 || slow.SlowQueries[0]["id"] != 1.0 || slow.SlowQueries[0]["report"] == "" {
		t.Fatalf("/debug/slowlog content wrong:\n%s", body)
	}
	code, body = get("/debug/slowlog?format=text&verbose=1")
	if code != http.StatusOK || !strings.Contains(body, "Phases:") {
		t.Errorf("/debug/slowlog?format=text&verbose=1: code %d body:\n%s", code, body)
	}

	// One run, one record: the sink's line, the ring's entry and the slow
	// record (less its id and report) are the same JSON object.
	var fromSink map[string]any
	if err := json.Unmarshal(sunk.Bytes(), &fromSink); err != nil {
		t.Fatalf("sink line is not valid JSON: %v\n%s", err, sunk.String())
	}
	code, body = get("/debug/events")
	var ring struct {
		Events []map[string]any `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &ring); err != nil || code != http.StatusOK || len(ring.Events) != 1 {
		t.Fatalf("/debug/events: code %d err %v body:\n%s", code, err, body)
	}
	fromSlow := slow.SlowQueries[0]
	delete(fromSlow, "id")
	delete(fromSlow, "report")
	if !reflect.DeepEqual(fromSink, ring.Events[0]) || !reflect.DeepEqual(fromSink, fromSlow) {
		t.Errorf("one run, three objects:\n sink    %v\n ring    %v\n slowlog %v", fromSink, ring.Events[0], fromSlow)
	}
	if fromSink["partition"] != "built" || fromSink["slow"] != true {
		t.Errorf("event lacks the partition outcome or the slow flag: %v", fromSink)
	}

	// The per-handle trace endpoints are gone with the trace store.
	if code, _ = get("/debug/trace/"); code != http.StatusNotFound {
		t.Errorf("/debug/trace/ returned %d, want 404", code)
	}
	// The sharded partition cache was deleted with its endpoint.
	if code, _ = get("/debug/shards"); code != http.StatusNotFound {
		t.Errorf("/debug/shards returned %d, want 404", code)
	}

	// /debug/queries: empty in-flight list (the query finished), both
	// renderings.
	code, body = get("/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries returned %d", code)
	}
	var flights struct {
		Queries []struct {
			ID uint64 `json:"id"`
		} `json:"queries"`
	}
	if err := json.Unmarshal([]byte(body), &flights); err != nil {
		t.Fatalf("/debug/queries is not valid JSON: %v\n%s", err, body)
	}
	if len(flights.Queries) != 0 {
		t.Errorf("/debug/queries lists %d flights after completion:\n%s", len(flights.Queries), body)
	}
	code, body = get("/debug/queries?format=text")
	if code != http.StatusOK || !strings.Contains(body, "in-flight") {
		t.Errorf("/debug/queries?format=text: code %d body:\n%s", code, body)
	}

	// /debug/events holds the completed run's wide event.
	code, body = get("/debug/events")
	if code != http.StatusOK {
		t.Fatalf("/debug/events returned %d", code)
	}
	var evs struct {
		Events []struct {
			SQL       string `json:"sql"`
			PredEvals int64  `json:"pred_evals"`
			Slow      bool   `json:"slow"`
		} `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &evs); err != nil {
		t.Fatalf("/debug/events is not valid JSON: %v\n%s", err, body)
	}
	if len(evs.Events) != 1 || evs.Events[0].SQL == "" || evs.Events[0].PredEvals == 0 {
		t.Errorf("/debug/events content wrong:\n%s", body)
	}
	if !evs.Events[0].Slow {
		t.Errorf("event not flagged slow despite the 1ns threshold:\n%s", body)
	}
	code, body = get("/debug/events?format=text")
	if code != http.StatusOK || !strings.Contains(body, "pred-evals=") {
		t.Errorf("/debug/events?format=text: code %d body:\n%s", code, body)
	}

	// /debug/pprof/ index and a cheap profile.
	code, body = get("/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/: code %d", code)
	}
	if code, _ = get("/debug/pprof/goroutine?debug=1"); code != http.StatusOK {
		t.Errorf("/debug/pprof/goroutine returned %d", code)
	}

	// Unknown paths 404.
	if code, _ = get("/nosuch"); code != http.StatusNotFound {
		t.Errorf("unknown path returned %d, want 404", code)
	}
}
