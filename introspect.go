package sqlts

// Statement-level introspection: per-statement statistics (keyed by the
// plan cache's normalized SQL), a retained slow-query log, and sampled
// full traces exportable as Chrome trace-event JSON. Everything here is
// fed from the serving path (observe.go, stream.go) and surfaced over
// HTTP by DB.DebugHandler (debug.go), programmatically by the DB
// methods below, and interactively by the REPL's \stats and \slowlog.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
)

// Introspection defaults; tune with the Set* knobs below.
const (
	defaultStatementCapacity = 256
	defaultSlowLogCapacity   = 32
	defaultTraceCapacity     = 64
)

// StatementStats snapshots the per-statement statistics, hottest first
// (sorted by total execution time). Statements are keyed exactly like
// the plan cache — case-folded, whitespace-normalized SQL — so every
// formatting/case variant of a query aggregates into one line. With
// more distinct statements than the configured capacity, the tail
// aggregates under obs.OverflowKey.
func (db *DB) StatementStats() []obs.StmtSnapshot {
	return db.stmts.Snapshots()
}

// ResetStatementStats drops all per-statement counters (capacity and
// sampling knobs are kept).
func (db *DB) ResetStatementStats() { db.stmts.Reset() }

// SetStatementStatsCapacity bounds the number of distinct statements
// tracked (default 256; overflow aggregates into one catch-all entry).
// 0 disables statement tracking entirely — queries then skip the store
// update.
func (db *DB) SetStatementStatsCapacity(n int) { db.stmts.SetCapacity(n) }

// SetTraceSampleRate retains one full lifecycle trace per statement
// every n executions (the first execution and every n-th after it),
// retrievable via TraceByID / RetainedTraces / the /debug/trace
// endpoint. 0 (the default) disables sampling; slow-query records
// always retain their trace regardless.
func (db *DB) SetTraceSampleRate(n int) {
	if n < 0 {
		n = 0
	}
	db.traceSampleRate.Store(int64(n))
}

// SlowQueryRecord is one retained slow-query-log entry: everything the
// execution knew about itself, captured at completion time.
type SlowQueryRecord struct {
	// ID numbers records in capture order (1-based, monotonic per DB).
	ID uint64 `json:"id"`
	// TraceID keys the retained lifecycle trace (DB.TraceByID,
	// /debug/trace/<id>).
	TraceID  uint64        `json:"trace_id"`
	Time     time.Time     `json:"time"`
	SQL      string        `json:"sql"`
	Executor string        `json:"executor"`
	Duration time.Duration `json:"duration_ns"`
	Rows     int           `json:"rows"`
	Scanned  int           `json:"rows_scanned"`
	Stats    engine.Stats  `json:"stats"`
	// Report is the rendered plan annotated with the run's cache
	// outcome, phase timings, counters and per-cluster breakdown — the
	// EXPLAIN ANALYZE layout minus the naive-comparison re-run (the log
	// must not re-execute queries).
	Report string `json:"report"`
}

// slowLog is a fixed-capacity ring of the most recent slow queries.
type slowLog struct {
	mu       sync.Mutex
	capacity int
	seq      uint64
	recs     []SlowQueryRecord // ring, oldest at head when full
}

func newSlowLog(capacity int) *slowLog {
	return &slowLog{capacity: capacity}
}

func (l *slowLog) add(rec SlowQueryRecord) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.capacity <= 0 {
		return 0
	}
	l.seq++
	rec.ID = l.seq
	if len(l.recs) < l.capacity {
		l.recs = append(l.recs, rec)
	} else {
		copy(l.recs, l.recs[1:])
		l.recs[len(l.recs)-1] = rec
	}
	return rec.ID
}

// snapshot returns the retained records, most recent first.
func (l *slowLog) snapshot() []SlowQueryRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]SlowQueryRecord, len(l.recs))
	for i, r := range l.recs {
		out[len(out)-1-i] = r
	}
	return out
}

func (l *slowLog) setCapacity(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 {
		n = 0
	}
	l.capacity = n
	if len(l.recs) > n {
		l.recs = append([]SlowQueryRecord(nil), l.recs[len(l.recs)-n:]...)
	}
}

func (l *slowLog) reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = nil
}

// SlowLog returns the retained slow-query records, most recent first.
// Records are captured whenever an execution meets the
// SetSlowQueryThreshold duration (with or without a hook function).
func (db *DB) SlowLog() []SlowQueryRecord { return db.slow.snapshot() }

// SetSlowLogCapacity resizes the slow-query ring (default 32; oldest
// records are dropped first). 0 disables retention — the threshold
// metric and hook keep firing.
func (db *DB) SetSlowLogCapacity(n int) { db.slow.setCapacity(n) }

// ResetIntrospection clears the statement stats, the slow-query log and
// the retained traces in one call (knobs and thresholds are kept).
func (db *DB) ResetIntrospection() {
	db.stmts.Reset()
	db.slow.reset()
	db.traces.reset()
}

// RetainedTrace is one sampled (or slow-query) lifecycle trace held for
// later inspection and export.
type RetainedTrace struct {
	ID   uint64    `json:"id"`
	SQL  string    `json:"sql"`
	Time time.Time `json:"time"`
	// Slow marks traces retained by the slow-query log rather than by
	// sampling.
	Slow  bool        `json:"slow,omitempty"`
	Spans []*obs.Span `json:"-"`
}

// traceStore retains the last N sampled traces keyed by ID.
type traceStore struct {
	mu       sync.Mutex
	capacity int
	seq      uint64
	order    []uint64 // insertion order for eviction
	traces   map[uint64]*RetainedTrace
}

func newTraceStore(capacity int) *traceStore {
	return &traceStore{capacity: capacity, traces: map[uint64]*RetainedTrace{}}
}

func (ts *traceStore) add(sql string, slow bool, spans []*obs.Span) uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.capacity <= 0 {
		return 0
	}
	ts.seq++
	id := ts.seq
	ts.traces[id] = &RetainedTrace{ID: id, SQL: sql, Time: time.Now(), Slow: slow, Spans: spans}
	ts.order = append(ts.order, id)
	for len(ts.order) > ts.capacity {
		delete(ts.traces, ts.order[0])
		ts.order = ts.order[1:]
	}
	return id
}

func (ts *traceStore) get(id uint64) *RetainedTrace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.traces[id]
}

func (ts *traceStore) list() []*RetainedTrace {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]*RetainedTrace, 0, len(ts.order))
	for i := len(ts.order) - 1; i >= 0; i-- {
		out = append(out, ts.traces[ts.order[i]])
	}
	return out
}

func (ts *traceStore) reset() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.order = nil
	ts.traces = map[uint64]*RetainedTrace{}
}

// TraceByID returns a retained trace (sampled or slow-query), or nil.
func (db *DB) TraceByID(id uint64) *RetainedTrace { return db.traces.get(id) }

// RetainedTraces lists the retained traces, most recent first.
func (db *DB) RetainedTraces() []*RetainedTrace { return db.traces.list() }

// retainTrace snapshots a query's spans into the trace store and points
// the statement entry at it.
func (db *DB) retainTrace(q *Query, entry *obs.StmtStats, slow bool) uint64 {
	id := db.traces.add(q.plan.sql, slow, q.trace.Spans())
	if id != 0 {
		entry.SetLastTrace(id)
	}
	return id
}

// WriteStatementStats renders the statement table as aligned text,
// hottest statements first — the /debug/statements?format=text and
// REPL \stats view.
func (db *DB) WriteStatementStats(w io.Writer) error {
	stats := db.StatementStats()
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %6s %10s %10s %10s %12s %8s %7s %7s  %s\n",
		"calls", "errs", "p50", "p95", "p99", "pred-evals", "saves%", "plan%", "part%", "statement")
	for _, s := range stats {
		saves := "-"
		if s.OPSSavingsPct != 0 {
			saves = fmt.Sprintf("%.1f", s.OPSSavingsPct)
		}
		fmt.Fprintf(&b, "%8d %6d %10s %10s %10s %12d %8s %7s %7s  %s\n",
			s.Calls, s.Errors,
			time.Duration(s.P50Ns).Round(time.Microsecond),
			time.Duration(s.P95Ns).Round(time.Microsecond),
			time.Duration(s.P99Ns).Round(time.Microsecond),
			s.PredEvals, saves,
			pctOf(s.PlanCacheHits, s.Calls), pctOf(s.PartitionCacheHits, s.Calls),
			truncateSQL(s.SQL, 80))
		if s.StreamPushes > 0 || s.StreamsOpen > 0 {
			fmt.Fprintf(&b, "%8s streams: open=%d pushes=%d matches=%d pruned=%d push-p50=%s push-p99=%s\n",
				"", s.StreamsOpen, s.StreamPushes, s.StreamMatches, s.PrunedRows,
				time.Duration(s.PushP50Ns).Round(time.Microsecond),
				time.Duration(s.PushP99Ns).Round(time.Microsecond))
		}
		if s.Canceled+s.DeadlineExceeded+s.BudgetExceeded+s.Panics+s.AdmissionRejected+s.Killed+s.AdmissionWaitNs > 0 {
			fmt.Fprintf(&b, "%8s errors: canceled=%d killed=%d deadline=%d budget=%d panics=%d rejected=%d adm-wait=%s\n",
				"", s.Canceled, s.Killed, s.DeadlineExceeded, s.BudgetExceeded, s.Panics, s.AdmissionRejected,
				time.Duration(s.AdmissionWaitNs).Round(time.Microsecond))
		}
	}
	if len(stats) == 0 {
		b.WriteString("(no statements tracked)\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteSlowLog renders the slow-query log, most recent first. Verbose
// appends each record's full report (plan, phases, clusters).
func (db *DB) WriteSlowLog(w io.Writer, verbose bool) error {
	recs := db.SlowLog()
	var b strings.Builder
	if len(recs) == 0 {
		b.WriteString("(slow-query log empty — set a threshold with SetSlowQueryThreshold)\n")
	}
	for _, r := range recs {
		fmt.Fprintf(&b, "#%d %s  %s  executor=%s rows=%d scanned=%d %s trace=%d\n  %s\n",
			r.ID, r.Time.Format(time.RFC3339), r.Duration.Round(time.Microsecond),
			r.Executor, r.Rows, r.Scanned, r.Stats, r.TraceID, truncateSQL(r.SQL, 120))
		if verbose {
			b.WriteString(indent(r.Report, "  "))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func pctOf(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", 100*float64(part)/float64(total))
}

// truncateSQL collapses a statement to one line of at most n runes,
// cutting between runes: a multi-byte character in a quoted literal is
// kept whole or dropped, never split.
func truncateSQL(sql string, n int) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) <= n { // no more runes than bytes
		return sql
	}
	if r := []rune(sql); len(r) > n {
		return string(r[:n-1]) + "…"
	}
	return sql
}

// statementTotals sums the per-statement counters — the quantities the
// differential acceptance test checks against summed Result counters.
type statementTotals struct {
	Calls, Errors, Rows, Scanned    int64
	PredEvals, Rollbacks, Matches   int64
	PlanHits, PartHits              int64
	KernelRuns, InterpRuns          int64
	Pushes, PushMatches, PrunedRows int64
	sortKeys                        []string
}

func (db *DB) statementTotals() statementTotals {
	var t statementTotals
	for _, s := range db.StatementStats() {
		t.Calls += s.Calls
		t.Errors += s.Errors
		t.Rows += s.Rows
		t.Scanned += s.RowsScanned
		t.PredEvals += s.PredEvals
		t.Rollbacks += s.Rollbacks
		t.Matches += s.Matches
		t.PlanHits += s.PlanCacheHits
		t.PartHits += s.PartitionCacheHits
		t.KernelRuns += s.KernelRuns
		t.InterpRuns += s.InterpreterRuns
		t.Pushes += s.StreamPushes
		t.PushMatches += s.StreamMatches
		t.PrunedRows += s.PrunedRows
		t.sortKeys = append(t.sortKeys, s.SQL)
	}
	sort.Strings(t.sortKeys)
	return t
}
