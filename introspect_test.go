package sqlts

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"

	"sqlts/internal/storage"
)

// introspectSQL are two distinct statements used by the introspection
// tests (both double-bottom-style patterns over the quote table).
const (
	introspectSQL1 = `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
		WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`
	introspectSQL2 = `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
		WHERE Y.price > X.price`
)

// TestStatementTotalsMatchResults is the differential acceptance test:
// the statement-stats totals must agree exactly with the summed Result
// counters across serial, parallel, naive and overlap executions — the
// introspection layer observes the serving path, it must not change or
// approximate it.
func TestStatementTotalsMatchResults(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	insertSeries(t, db, "IBM", 10000, 10, 12, 9, 7, 14, 16, 12)

	variants := []RunOptions{
		{},                    // serial
		{MaxWorkers: 4},       // four workers
		{Executor: NaiveExec}, // naive executor (feeds the savings metric)
		{Overlap: true},       // overlapping occurrences
	}
	var want statementTotals
	naiveRuns := int64(0)
	for _, sql := range []string{introspectSQL1, introspectSQL2} {
		for _, opts := range variants {
			q, err := db.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			res, err := q.RunWith(opts)
			if err != nil {
				t.Fatal(err)
			}
			want.Calls++
			want.Rows += int64(len(res.Rows))
			want.PredEvals += res.Stats.PredEvals
			want.Rollbacks += res.Stats.Rollbacks
			want.Matches += int64(res.Stats.Matches)
			if res.PlanCached() {
				want.PlanHits++
			}
			if res.PartitionCached() {
				want.PartHits++
			}
			if opts.Executor == NaiveExec {
				naiveRuns++
			}
		}
	}

	got := db.statementTotals()
	if got.Calls != want.Calls {
		t.Errorf("calls: stats %d, results %d", got.Calls, want.Calls)
	}
	if got.Errors != 0 {
		t.Errorf("errors: stats %d, want 0", got.Errors)
	}
	if got.Rows != want.Rows {
		t.Errorf("rows: stats %d, results %d", got.Rows, want.Rows)
	}
	if got.PredEvals != want.PredEvals {
		t.Errorf("pred-evals: stats %d, results %d", got.PredEvals, want.PredEvals)
	}
	if got.Rollbacks != want.Rollbacks {
		t.Errorf("rollbacks: stats %d, results %d", got.Rollbacks, want.Rollbacks)
	}
	if got.Matches != want.Matches {
		t.Errorf("matches: stats %d, results %d", got.Matches, want.Matches)
	}
	if got.PlanHits != want.PlanHits {
		t.Errorf("plan cache hits: stats %d, results %d", got.PlanHits, want.PlanHits)
	}
	if got.PartHits != want.PartHits {
		t.Errorf("partition cache hits: stats %d, results %d", got.PartHits, want.PartHits)
	}
	// Every call is either a kernel or an interpreter run, and both
	// statements compile every element, so each is a kernel run.
	if got.KernelRuns != want.Calls || got.InterpRuns != 0 {
		t.Errorf("kernel %d + interpreter %d runs, want %d + 0",
			got.KernelRuns, got.InterpRuns, want.Calls)
	}
	// Two statements → two entries; the case/whitespace-normalized keys.
	if len(got.sortKeys) != 2 {
		t.Fatalf("statement keys %q, want 2 entries", got.sortKeys)
	}
	for _, key := range got.sortKeys {
		if key != strings.ToLower(key) {
			t.Errorf("statement key not case-folded: %q", key)
		}
	}
	// Both statements ran naive and optimized, so the savings metric is
	// populated (OPS must not do more probe work than naive here).
	for _, s := range db.StatementStats() {
		if s.NaiveCalls != naiveRuns/2 {
			t.Errorf("entry %q naive calls = %d, want %d", s.SQL, s.NaiveCalls, naiveRuns/2)
		}
		if s.OPSSavingsPct < 0 {
			t.Errorf("entry %q OPS savings %.1f%% negative", s.SQL, s.OPSSavingsPct)
		}
	}

	// Reset drops the counters but keeps tracking enabled.
	db.ResetStatementStats()
	if n := len(db.StatementStats()); n != 0 {
		t.Fatalf("%d entries after reset", n)
	}
	if _, err := db.Query(introspectSQL2); err != nil {
		t.Fatal(err)
	}
	if got := db.statementTotals(); got.Calls != 1 {
		t.Errorf("calls after reset = %d, want 1", got.Calls)
	}
}

// TestStatementStatsDisabled checks the introspection-off configuration
// (capacity 0): the serving path must keep working with no entries
// tracked.
func TestStatementStatsDisabled(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	db.SetStatementStatsCapacity(0)
	res, err := db.Query(introspectSQL1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(res.Rows))
	}
	if n := len(db.StatementStats()); n != 0 {
		t.Errorf("%d entries tracked while disabled", n)
	}
	// Streams must also serve with tracking disabled (nil entry path).
	st, err := db.Stream(introspectSQL2, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(storage.NewString("A"), storage.NewDateDays(1), storage.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Re-enable and confirm tracking resumes.
	db.SetStatementStatsCapacity(16)
	if _, err := db.Query(introspectSQL1); err != nil {
		t.Fatal(err)
	}
	if got := db.statementTotals(); got.Calls != 1 {
		t.Errorf("calls after re-enable = %d, want 1", got.Calls)
	}
}

func TestSlowQueryLogRetention(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	db.SetSlowQueryThreshold(time.Nanosecond) // everything is slow

	for i := 0; i < 3; i++ {
		if _, err := db.Query(introspectSQL1); err != nil {
			t.Fatal(err)
		}
	}
	recs := db.SlowLog()
	if len(recs) != 3 {
		t.Fatalf("slow log has %d records, want 3", len(recs))
	}
	// Most recent first, IDs monotone.
	if recs[0].ID != 3 || recs[2].ID != 1 {
		t.Errorf("record order wrong: IDs %d..%d", recs[0].ID, recs[2].ID)
	}
	r := recs[0]
	if r.SQL == "" || r.Executor == "" || r.DurationNs <= 0 || r.Rows != 1 || !r.Slow {
		t.Errorf("record fields wrong: %+v", r)
	}
	// The record is the run's event, as the ring retained it.
	if ev := db.RecentEvents()[0]; r.Event != ev {
		t.Errorf("slow record's event %+v differs from the ring's %+v", r.Event, ev)
	}
	// The report is the rendered EXPLAIN ANALYZE layout, captured without
	// re-executing: plan, cache outcome, phases, counters.
	for _, want := range []string{"plan: cached", "Phases:", "Executor", "PredEvals="} {
		if !strings.Contains(r.Report, want) {
			t.Errorf("report missing %q:\n%s", want, r.Report)
		}
	}
	// The execute line is the event's: same executor, rows and counters.
	exec := fmt.Sprintf("executor=%s clusters=%d rows-scanned=%d rows=%d plan=cached partition=%s workers=%d (%d borrowed, %d yielded) stats=PredEvals=%d",
		r.Executor, r.Clusters, r.RowsScanned, r.Rows, r.Partition, r.Workers, r.HelpersBorrowed, r.HelpersYielded, r.PredEvals)
	if !strings.Contains(r.Report, exec) {
		t.Errorf("report's execute line is not the event's (%s):\n%s", exec, r.Report)
	}

	// Shrinking the ring drops the oldest records.
	db.SetSlowLogCapacity(2)
	recs = db.SlowLog()
	if len(recs) != 2 || recs[0].ID != 3 || recs[1].ID != 2 {
		t.Errorf("after shrink: %d records, IDs %v", len(recs), recs)
	}
	// The ring wraps at capacity: two more slow queries evict IDs 2–3.
	for i := 0; i < 2; i++ {
		if _, err := db.Query(introspectSQL1); err != nil {
			t.Fatal(err)
		}
	}
	recs = db.SlowLog()
	if len(recs) != 2 || recs[0].ID != 5 || recs[1].ID != 4 {
		t.Errorf("after wrap: IDs %d,%d want 5,4", recs[0].ID, recs[1].ID)
	}

	// Capacity 0 disables retention (the slow flag and counter stay live).
	db.SetSlowLogCapacity(0)
	if _, err := db.Query(introspectSQL1); err != nil {
		t.Fatal(err)
	}
	if n := len(db.SlowLog()); n != 0 {
		t.Errorf("%d records retained while disabled", n)
	}

	db.SetSlowLogCapacity(8)
	if _, err := db.Query(introspectSQL1); err != nil {
		t.Fatal(err)
	}
	if len(db.SlowLog()) != 1 {
		t.Error("retention did not resume after re-enable")
	}
	db.ResetIntrospection()
	if len(db.SlowLog()) != 0 || len(db.StatementStats()) != 0 {
		t.Error("ResetIntrospection left state behind")
	}
}

// TestStreamStatementStats checks that continuous queries surface in
// the statement table: open-stream gauge, exact push/match/pruned
// counts (also cross-checked against the registry counters, which are
// fed from the same deltas).
func TestStreamStatementStats(t *testing.T) {
	db := quoteDB(t)
	matches := 0
	st, err := db.Stream(introspectSQL2, StreamOptions{}, func(storage.Row) error {
		matches++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := streamSnapshot(t, db)
	if snap.StreamsOpen != 1 {
		t.Fatalf("streams_open = %d, want 1", snap.StreamsOpen)
	}
	// Alternating prices: every (low, high) pair matches Y.price > X.price,
	// and completed matches advance the window so old rows prune.
	const pushes = 40
	for i := 0; i < pushes; i++ {
		price := 1.0
		if i%2 == 1 {
			price = 2.0
		}
		if err := st.Push(storage.NewString("A"), storage.NewDateDays(int64(i)), storage.NewFloat(price)); err != nil {
			t.Fatal(err)
		}
	}
	snap = streamSnapshot(t, db)
	if snap.StreamPushes != pushes {
		t.Errorf("stream_pushes = %d, want %d", snap.StreamPushes, pushes)
	}
	if matches == 0 || snap.StreamMatches != int64(matches) {
		t.Errorf("stream_matches = %d, sink saw %d", snap.StreamMatches, matches)
	}
	if snap.PrunedRows <= 0 {
		t.Errorf("stream_pruned_rows = %d, want > 0 (window advanced past %d matches)",
			snap.PrunedRows, matches)
	}
	// The registry counters and the statement entry are fed from the same
	// push path — they must agree exactly.
	var metrics strings.Builder
	if err := db.WriteMetrics(&metrics); err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]int64{
		"sqlts_stream_pushes_total":      snap.StreamPushes,
		"sqlts_stream_matches_total":     snap.StreamMatches,
		"sqlts_stream_pruned_rows_total": snap.PrunedRows,
		"sqlts_streams_open":             snap.StreamsOpen,
	} {
		line := fmt.Sprintf("%s %d", metric, want)
		if !strings.Contains(metrics.String(), line) {
			t.Errorf("exposition missing %q", line)
		}
	}

	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if snap = streamSnapshot(t, db); snap.StreamsOpen != 0 {
		t.Errorf("streams_open after Close = %d, want 0", snap.StreamsOpen)
	}
}

// streamSnapshot returns the single statement entry of the stream tests.
func streamSnapshot(t *testing.T, db *DB) (snap struct {
	StreamsOpen, StreamPushes, StreamMatches, PrunedRows int64
}) {
	t.Helper()
	snaps := db.StatementStats()
	if len(snaps) != 1 {
		t.Fatalf("%d statement entries, want 1", len(snaps))
	}
	snap.StreamsOpen = snaps[0].StreamsOpen
	snap.StreamPushes = snaps[0].StreamPushes
	snap.StreamMatches = snaps[0].StreamMatches
	snap.PrunedRows = snaps[0].PrunedRows
	return snap
}

// TestTruncateSQL: the one-line form every text surface prints is at most
// n runes and valid UTF-8 wherever the cut lands.
func TestTruncateSQL(t *testing.T) {
	wide := "WHERE X.name = '" + strings.Repeat("日", 10) + "'" // 16 ASCII, ten 3-byte runes, a quote
	for _, tc := range []struct {
		name, sql string
		n         int
		want      string
	}{
		{"under", "SELECT a", 10, "SELECT a"},
		{"at", "SELECT abc", 10, "SELECT abc"},
		{"over", "SELECT abcd", 10, "SELECT ab…"},
		{"collapsed", "SELECT\n\t a ,\n b", 80, "SELECT a , b"},
		{"straddling", wide, 20, "WHERE X.name = '日日日…"},
		{"wide at", wide, 27, wide},
		{"wide over by one", wide + "x", 27, wide[:len(wide)-1] + "…"},
	} {
		got := truncateSQL(tc.sql, tc.n)
		if got != tc.want {
			t.Errorf("%s: truncateSQL(%q, %d) = %q, want %q", tc.name, tc.sql, tc.n, got, tc.want)
		}
		if !utf8.ValidString(got) || utf8.RuneCountInString(got) > tc.n {
			t.Errorf("%s: %q is invalid UTF-8 or longer than %d runes", tc.name, got, tc.n)
		}
	}
}
