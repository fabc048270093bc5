package sqlts

// Statement-level introspection: per-statement statistics (keyed by the
// plan cache's normalized SQL) and a retained slow-query log. Everything
// here is fed from the serving path (observe.go, stream.go) and surfaced
// over HTTP by DB.DebugHandler (debug.go), programmatically by the DB
// methods below, and interactively by the REPL's \stats and \slowlog.

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
)

// Introspection defaults; tune with the Set* knobs below.
const (
	defaultStatementCapacity = 256
	defaultSlowLogCapacity   = 32
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

// ResetStatementStats drops all per-statement counters (the capacity is
// kept).
func (db *DB) ResetStatementStats() { db.stmts.Reset() }

// SetStatementStatsCapacity bounds the number of distinct statements
// tracked (default 256; overflow aggregates into one catch-all entry).
// 0 disables statement tracking entirely — queries then skip the store
// update.
func (db *DB) SetStatementStatsCapacity(n int) { db.stmts.SetCapacity(n) }

// SlowQueryRecord is one retained slow-query-log entry: the execution's
// event, as the ring and the sink saw it, numbered and with a report.
type SlowQueryRecord struct {
	// ID numbers records in capture order (1-based, monotonic per DB).
	ID uint64 `json:"id"`
	obs.Event
	// Report is the rendered plan annotated with the run's cache
	// outcome, phase timings, counters and per-cluster breakdown — the
	// EXPLAIN ANALYZE layout minus the naive-comparison re-run (the log
	// must not re-execute queries). For a contained panic it is the
	// panic value and the captured stack.
	Report string `json:"report"`
}

// SlowLog returns the retained slow-query records, most recent first.
// Records are captured whenever an execution meets the
// SetSlowQueryThreshold duration or ends in a contained panic.
func (db *DB) SlowLog() []SlowQueryRecord {
	recs, last := db.slow.Snapshot()
	for i := range recs {
		recs[i].ID = last - uint64(i)
	}
	return recs
}

// SetSlowLogCapacity resizes the slow-query ring (default 32; oldest
// records are dropped first). 0 disables retention — the threshold
// metric and the events' Slow flag stay.
func (db *DB) SetSlowLogCapacity(n int) { db.slow.SetCapacity(n) }

// ResetIntrospection clears the statement stats and the slow-query log
// in one call (knobs and thresholds are kept).
func (db *DB) ResetIntrospection() {
	db.stmts.Reset()
	db.slow.Reset()
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
		fmt.Fprintf(&b, "#%d %s  %s  executor=%s rows=%d scanned=%d %s",
			r.ID, r.Time.Format(time.RFC3339), time.Duration(r.DurationNs).Round(time.Microsecond),
			r.Executor, r.Rows, r.RowsScanned, eventStats(&r.Event))
		if r.ErrorKind != "" {
			fmt.Fprintf(&b, " error=%s", r.ErrorKind)
		}
		fmt.Fprintf(&b, "\n  %s\n", truncateSQL(r.SQL, 120))
		if verbose {
			b.WriteString(indent(r.Report, "  "))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// eventStats is the event's search counters in engine.Stats form, for
// the renderings that print them the way a Result's Stats print.
func eventStats(ev *obs.Event) engine.Stats {
	return engine.Stats{PredEvals: ev.PredEvals, Rollbacks: ev.Rollbacks, Matches: int(ev.Matches)}
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
