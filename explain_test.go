package sqlts

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlts/internal/obs"
	"sqlts/internal/storage"
	"sqlts/internal/workload"
)

// djiaDoubleBottomDB builds the hand-crafted series of
// TestExample10DoubleBottom (one planted double bottom).
func djiaDoubleBottomDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	db.MustExec(`CREATE TABLE djia (date DATE, price REAL)`)
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	tbl := db.Table("djia")
	prices := []float64{
		100, 100.5, 95, 90, 90.5, 89.9, 95, 99, 99.5, 99.1,
		94, 90, 90.2, 89.8, 95, 99, 99.5,
	}
	for i, p := range prices {
		tbl.MustInsert(storage.NewDateDays(int64(20000+i)), storage.NewFloat(p))
	}
	return db
}

// TestExplainAnalyzeDoubleBottom runs EXPLAIN ANALYZE end-to-end on the
// README/§7 double-bottom query and checks the annotated plan: phase
// timings for the whole compile/execute pipeline, the runtime counters,
// and the naive-vs-OPS comparison.
func TestExplainAnalyzeDoubleBottom(t *testing.T) {
	db := djiaDoubleBottomDB(t)
	q, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	text, err := q.ExplainAnalyze(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"Phases:",
		"parse", "analyze", "matrices", "shift/next", "execute",
		"implication-checks=",
		"PredEvals=", "Rollbacks=", "Matches=",
		"Executor ops:",
		"Naive comparison:",
		"OPS saves",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "Matches=1") {
		t.Errorf("expected exactly one double bottom in output:\n%s", text)
	}

	// The search loop line names the loop the run's executor took; plain
	// EXPLAIN names the default executor's.
	pair := "search loop: pure-mask, pair scan\n"
	if !strings.Contains(q.Explain(), pair) {
		t.Errorf("EXPLAIN has no line %q:\n%s", pair, q.Explain())
	}
	for kind, want := range map[ExecutorKind]string{
		NaiveExec:         "search loop: naive, element-1 skip\n",
		OPSExec:           pair,
		OPSShiftOnlyExec:  pair,
		OPSNoCountersExec: "search loop: pure-mask, element-1 skip (element 2 restarts without counters)\n",
		OPSSkipExec:       "search loop: pure-mask, element-1 skip (element 2's failed tuple is consumed)\n",
	} {
		text, err := q.ExplainAnalyze(RunOptions{Executor: kind})
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(text, want) || !strings.Contains(text, "Executor "+kind.String()+":") {
			t.Errorf("EXPLAIN ANALYZE under %s has no line %q:\n%s", kind, want, text)
		}
	}
}

// TestExplainAnalyzeViaSQL routes EXPLAIN [ANALYZE] through DB.Query and
// checks the QUERY PLAN result shape.
func TestExplainAnalyzeViaSQL(t *testing.T) {
	db := djiaDoubleBottomDB(t)

	res, err := db.Query("EXPLAIN ANALYZE " + doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v, want [QUERY PLAN]", res.Columns)
	}
	all := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		all[i] = r[0].Str()
	}
	text := strings.Join(all, "\n")
	for _, want := range []string{"execute", "PredEvals=", "Naive comparison:"} {
		if !strings.Contains(text, want) {
			t.Errorf("SQL EXPLAIN ANALYZE missing %q:\n%s", want, text)
		}
	}
	if res.Stats.Matches != 1 {
		t.Errorf("Stats.Matches = %d, want 1", res.Stats.Matches)
	}

	// Plain EXPLAIN renders the plan without executing.
	res, err = db.Query("EXPLAIN " + doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	text = ""
	for _, r := range res.Rows {
		text += r[0].Str() + "\n"
	}
	if !strings.Contains(text, "shift") || strings.Contains(text, "Naive comparison") {
		t.Errorf("plain EXPLAIN wrong:\n%s", text)
	}
	if !res.Stats.IsZero() {
		t.Errorf("plain EXPLAIN executed the query: %v", res.Stats)
	}
}

// TestQueryTrace: the trace is the plan's compile phases, shared by every
// handle on the plan and untouched by running it; what a run did is in
// its event.
func TestQueryTrace(t *testing.T) {
	db := djiaDoubleBottomDB(t)
	q, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range q.Trace().Spans() {
		names = append(names, sp.Name)
	}
	if want := []string{"parse", "analyze", "matrices", "shift/next", "kernel"}; !reflect.DeepEqual(names, want) {
		t.Errorf("compile trace = %v, want %v", names, want)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(q.Trace().Spans()); n != len(names) {
		t.Errorf("a run left %d spans in the plan's trace, want %d", n, len(names))
	}
	hit, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	if !hit.PlanCached() || hit.Trace() != q.Trace() {
		t.Error("a cache-hit Prepare must share the plan's trace")
	}
	ev := db.RecentEvents()[0]
	if ev.Executor != "ops" || ev.DurationNs <= 0 || ev.PredEvals != res.Stats.PredEvals ||
		ev.Rows != int64(len(res.Rows)) || ev.Partition != res.PartitionOutcome() {
		t.Errorf("run event = %+v, result stats %v", ev, res.Stats)
	}
}

// TestClusterStats checks the per-cluster breakdown at one and at
// several workers: every cluster appears (with or without matches) and the
// per-cluster counters sum to the aggregate.
func TestClusterStats(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)
	insertSeries(t, db, "ACME", 10000, 10, 12, 9, 9.5)
	q, err := db.Prepare(`
		SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
		WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		res, err := q.RunWith(RunOptions{MaxWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		cs := res.ClusterStats()
		if len(cs) != 3 {
			t.Fatalf("workers=%d: cluster stats = %d entries, want 3", workers, len(cs))
		}
		var sum = cs[0].Stats
		rows := cs[0].Rows
		for i, c := range cs[1:] {
			if c.Cluster != i+1 {
				t.Errorf("workers=%d: cluster order %v", workers, cs)
			}
			sum.Add(c.Stats)
			rows += c.Rows
		}
		if sum != res.Stats {
			t.Errorf("workers=%d: per-cluster sum %v != aggregate %v", workers, sum, res.Stats)
		}
		if rows != 12 {
			t.Errorf("workers=%d: rows = %d, want 12", workers, rows)
		}
	}
}

// TestDBMetricsExposition drives a query plus a stream and checks the
// Prometheus exposition: at least 8 distinct families with the expected
// names and sane values.
func TestDBMetricsExposition(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	insertSeries(t, db, "IBM", 10000, 81, 80.5, 84, 83)
	if _, err := db.Query(`
		SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
		WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT X.name FROM nosuch AS (X, Y) WHERE Y.price > X.price`); err == nil {
		t.Fatal("bad query succeeded")
	}

	q, err := db.Prepare(`
		SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
		WHERE Y.price > X.price`)
	if err != nil {
		t.Fatal(err)
	}
	st, err := q.OpenStream(StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []float64{10, 11, 12} {
		if err := st.Push(storage.NewString("X"), storage.NewDateDays(int64(30000+i)), storage.NewFloat(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	fams := db.Metrics().Families()
	if len(fams) < 8 {
		t.Errorf("only %d metric families: %v", len(fams), fams)
	}
	for _, want := range []string{
		"sqlts_queries_total 1",
		"sqlts_query_errors_total 1",
		"sqlts_rows_scanned_total 8",
		"sqlts_clusters_scanned_total 2",
		"sqlts_stream_pushes_total 3",
		"sqlts_stream_active_clusters 0", // closed
		"sqlts_query_duration_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, family := range []string{
		"sqlts_pred_evals_total", "sqlts_rollbacks_total", "sqlts_matches_total",
		"sqlts_rows_returned_total", "sqlts_slow_queries_total", "sqlts_stream_matches_total",
	} {
		if !strings.Contains(out, "# TYPE "+family) {
			t.Errorf("exposition missing family %q", family)
		}
	}
}

// TestSlowQueryHook checks threshold crossing and the callback payload.
func TestSlowQueryHook(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	var got []obs.Event
	db.SetSlowQueryThreshold(time.Nanosecond, func(ev obs.Event) {
		got = append(got, ev)
	})
	const sql = `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("slow-query callbacks = %d, want 1", len(got))
	}
	if got[0].SQL != string(normalizeSQL(nil, sql)) || got[0].DurationNs <= 0 || got[0].PredEvals == 0 || !got[0].Slow {
		t.Errorf("slow-query event = %+v", got[0])
	}

	// Raising the threshold silences the hook.
	db.SetSlowQueryThreshold(time.Hour, nil)
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Errorf("hook fired with %v threshold", time.Hour)
	}
	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sqlts_slow_queries_total 1") {
		t.Error("slow query counter wrong")
	}
}

// TestExplainAnalyzeClusterTableBounded: the per-cluster table of EXPLAIN
// ANALYZE — which every slow-log record of the run retains — does not
// grow with the cluster count. Over 2,000 clusters the report stays under
// 4 KB: one line of distribution and the ten heaviest clusters, the
// heaviest of all among them.
func TestExplainAnalyzeClusterTableBounded(t *testing.T) {
	db := New()
	db.RegisterTable(workload.ClusterWalks("quote", 3, 2000, 8, 50))
	q, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}
	text, err := q.ExplainAnalyze(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(text) >= 4<<10 {
		t.Errorf("EXPLAIN ANALYZE over 2,000 clusters is %d bytes, want under 4 KB:\n%s", len(text), text)
	}
	res, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	cs := res.ClusterStats()
	heaviest := cs[0]
	for _, c := range cs {
		if c.Stats.PredEvals > heaviest.Stats.PredEvals {
			heaviest = c
		}
	}
	for _, want := range []string{
		"2000 clusters: rows min/median/max 8/8/24",
		fmt.Sprintf("  cluster %d: rows=%d %s\n", heaviest.Cluster, heaviest.Rows, heaviest.Stats),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, text)
		}
	}
	if n := strings.Count(text, "\n  cluster "); n != clusterTableRows {
		t.Errorf("cluster table has %d rows, want %d", n, clusterTableRows)
	}
}
