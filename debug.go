package sqlts

// The /debug HTTP surface: one mux per DB bundling the Prometheus
// exposition, the statement-stats table, the slow-query log, the
// flight recorder (in-flight queries, recent events), and net/http/pprof.
// Mount it on any server:
//
//	go http.ListenAndServe("localhost:6060", db.DebugHandler())

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"sqlts/internal/obs"
)

// DebugHandler returns an http.Handler exposing the DB's introspection
// surface:
//
//	/metrics               Prometheus exposition (runtime gauges read per scrape)
//	/debug/statements      per-statement stats — JSON, ?format=text for the table
//	/debug/slowlog         retained slow-query log — JSON, ?format=text[&verbose=1]
//	/debug/queries         in-flight queries — JSON, ?format=text for progress bars; POST id=<n> kills
//	/debug/events          recent wide events — JSON, ?format=text
//	/debug/pprof/*         net/http/pprof (profile, heap, goroutine, ...)
//
// The mux holds live references into the DB; serve it on an
// operator-only listener.
func (db *DB) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", db.MetricsHandler())
	mux.HandleFunc("/debug/statements", db.serveStatements)
	mux.HandleFunc("/debug/slowlog", db.serveSlowLog)
	mux.HandleFunc("/debug/queries", db.serveQueries)
	mux.HandleFunc("/debug/events", db.serveEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, `sqlts debug surface
  /metrics                 Prometheus exposition
  /debug/statements        per-statement stats (JSON; ?format=text)
  /debug/slowlog           slow-query log (JSON; ?format=text&verbose=1)
  /debug/queries           in-flight queries (JSON; ?format=text for progress bars; POST id=<n> kills)
  /debug/events            recent wide events (JSON; ?format=text)
  /debug/pprof/            Go profiling endpoints
`)
	})
	return mux
}

func (db *DB) serveStatements(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		db.WriteStatementStats(w)
		return
	}
	writeJSON(w, struct {
		Statements []obs.StmtSnapshot `json:"statements"`
	}{db.StatementStats()})
}

// serveQueries is the flight-recorder endpoint: GET lists the in-flight
// executions (JSON, or text progress bars with ?format=text); POST with
// an id form value kills the identified execution — the run observes
// ErrKilled annotated "killed via /debug/queries" at its next
// checkpoint.
func (db *DB) serveQueries(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodPost {
		idStr := r.FormValue("id")
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			http.Error(w, "id must be an unsigned integer", http.StatusBadRequest)
			return
		}
		if err := db.KillQuery(id, "killed via /debug/queries"); err != nil {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "kill delivered to query %d\n", id)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		db.WriteActiveQueries(w)
		return
	}
	writeJSON(w, struct {
		Queries []obs.FlightSnapshot `json:"queries"`
	}{db.ActiveQueries()})
}

// serveEvents tails the retained wide-event ring, most recent first.
func (db *DB) serveEvents(w http.ResponseWriter, r *http.Request) {
	events := db.RecentEvents()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, ev := range events {
			kind := "ok"
			if ev.ErrorKind != "" {
				kind = ev.ErrorKind
			}
			fmt.Fprintf(w, "%s  [%d] %-8s %s  %s  rows=%d pred-evals=%d\n",
				ev.Time.Format(time.RFC3339), ev.QueryID, kind,
				time.Duration(ev.DurationNs).Round(time.Microsecond), truncateSQL(ev.SQL, 120), ev.Rows, ev.PredEvals)
		}
		return
	}
	writeJSON(w, struct {
		Events []obs.Event `json:"events"`
	}{events})
}

func (db *DB) serveSlowLog(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		db.WriteSlowLog(w, r.URL.Query().Get("verbose") != "")
		return
	}
	writeJSON(w, struct {
		SlowQueries []SlowQueryRecord `json:"slow_queries"`
	}{db.SlowLog()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
