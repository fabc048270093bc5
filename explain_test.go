package sqlts

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sqlts/internal/engine"
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

// clusterReference is what EXPLAIN ANALYZE's per-cluster table of q must
// list: every cluster of q's partition searched on its own by a
// kernel-free OPS executor, the interpreter the serving path is held to.
func clusterReference(t testing.TB, q *Query) []clusterStat {
	t.Helper()
	c := q.plan.compiled
	part, _, err := q.db.partition(q.plan, true)
	if err != nil {
		t.Fatal(err)
	}
	var cs []clusterStat
	for i, seq := range part.Groups.Slice() {
		_, st := engine.NewOPS(c.Pattern, q.plan.tables, engine.OPSConfig{}).FindAll(seq)
		cs = append(cs, clusterStat{cluster: i, rows: len(seq), stats: st})
	}
	return cs
}

// explainClusters returns the per-cluster lines of an EXPLAIN ANALYZE
// text and the counters of its Executor line.
func explainClusters(t testing.TB, text string) (clusters []string, executor engine.Stats) {
	t.Helper()
	found := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "  cluster ") {
			clusters = append(clusters, line)
		}
		if _, err := fmt.Sscanf(line, "Executor ops: PredEvals=%d Rollbacks=%d Matches=%d",
			&executor.PredEvals, &executor.Rollbacks, &executor.Matches); err == nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("EXPLAIN ANALYZE has no Executor line:\n%s", text)
	}
	return clusters, executor
}

// TestClusterStats checks EXPLAIN ANALYZE's per-cluster table at one and
// at three workers, and after an insert refreshed the partition: with ten
// clusters or fewer every cluster is listed in order, matches or not, with
// the rows and counters it has searched on its own, and the rows' counters
// sum to the Executor line's.
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
	check := func(label string, wantRows int) {
		t.Helper()
		ref := clusterReference(t, q)
		for _, workers := range []int{1, 3} {
			text, err := q.ExplainAnalyze(RunOptions{MaxWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			lines, executor := explainClusters(t, text)
			if len(lines) != len(ref) {
				t.Fatalf("%s, workers=%d: %d cluster lines, want %d:\n%s", label, workers, len(lines), len(ref), text)
			}
			var sum engine.Stats
			rows := 0
			for i, c := range ref {
				if want := fmt.Sprintf("  cluster %d: rows=%d %s", i, c.rows, c.stats); lines[i] != want {
					t.Errorf("%s, workers=%d: line %d is %q, want %q", label, workers, i, lines[i], want)
				}
				sum.Add(c.stats)
				rows += c.rows
			}
			if sum != executor {
				t.Errorf("%s, workers=%d: per-cluster sum %v != Executor line %v", label, workers, sum, executor)
			}
			if rows != wantRows {
				t.Errorf("%s, workers=%d: rows = %d, want %d", label, workers, rows, wantRows)
			}
		}
	}
	check("three clusters", 12)
	insertSeries(t, db, "IBM", 10004, 97, 70)
	insertSeries(t, db, "DELL", 10000, 20, 24, 18, 19)
	if text, _ := q.ExplainAnalyze(RunOptions{}); !strings.Contains(text, "partition: refreshed") {
		t.Fatalf("the inserts did not refresh the partition:\n%s", text)
	}
	check("after a refresh", 18)
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

// TestSlowQueryHook checks threshold crossing and the event a sink that
// filters ev.Slow receives.
func TestSlowQueryHook(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 56)
	slow := &slowFilter{}
	db.SetEventSink(slow)
	db.SetSlowQueryThreshold(time.Nanosecond)
	const sql = `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	got := slow.events
	if len(got) != 1 {
		t.Fatalf("slow events = %d, want 1", len(got))
	}
	if got[0].SQL != string(normalizeSQL(nil, sql)) || got[0].DurationNs <= 0 || got[0].PredEvals == 0 || !got[0].Slow {
		t.Errorf("slow-query event = %+v", got[0])
	}

	// Raising the threshold: the next run's event is not slow.
	db.SetSlowQueryThreshold(time.Hour)
	if _, err := db.Query(sql); err != nil {
		t.Fatal(err)
	}
	if len(slow.events) != 1 {
		t.Errorf("a run was slow under a %v threshold", time.Hour)
	}
	var b strings.Builder
	if err := db.WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "sqlts_slow_queries_total 1") {
		t.Error("slow query counter wrong")
	}
}

// TestExplainAnalyzeClusterTableBounded: EXPLAIN ANALYZE's per-cluster
// table does not grow with the cluster count. Over 2,000 clusters the
// report stays under 4 KB at one and at three workers, and after an insert
// refreshed the partition: one line of distribution and the ten heaviest
// clusters, the heaviest of all among them.
func TestExplainAnalyzeClusterTableBounded(t *testing.T) {
	db := New()
	db.RegisterTable(workload.ClusterWalks("quote", 3, 2000, 8, 50))
	q, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label, distribution string) {
		t.Helper()
		ref := clusterReference(t, q)
		heaviest := ref[0]
		for _, c := range ref {
			if c.stats.PredEvals > heaviest.stats.PredEvals {
				heaviest = c
			}
		}
		for _, workers := range []int{1, 3} {
			text, err := q.ExplainAnalyze(RunOptions{MaxWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(text) >= 4<<10 {
				t.Errorf("%s, workers=%d: EXPLAIN ANALYZE over 2,000 clusters is %d bytes, want under 4 KB:\n%s", label, workers, len(text), text)
			}
			for _, want := range []string{
				distribution,
				fmt.Sprintf("  cluster %d: rows=%d %s\n", heaviest.cluster, heaviest.rows, heaviest.stats),
			} {
				if !strings.Contains(text, want) {
					t.Errorf("%s, workers=%d: EXPLAIN ANALYZE output missing %q:\n%s", label, workers, want, text)
				}
			}
			if lines, _ := explainClusters(t, text); len(lines) != clusterTableRows {
				t.Errorf("%s, workers=%d: cluster table has %d rows, want %d", label, workers, len(lines), clusterTableRows)
			}
		}
	}
	check("2,000 clusters", "2000 clusters: rows min/median/max 8/8/24")
	tbl := db.Table("quote")
	rows, _ := tbl.Snapshot()
	for i := 0; i < 40; i++ { // cluster 0 grows from 24 rows to 64
		tbl.MustInsert(rows[0][0], storage.NewDateDays(int64(40000+i)), storage.NewFloat(float64(50+i%3)))
	}
	if text, _ := q.ExplainAnalyze(RunOptions{}); !strings.Contains(text, "partition: refreshed (1 of 2000 clusters)") {
		t.Fatalf("the inserts did not refresh one cluster:\n%s", text)
	}
	check("after a refresh", "2000 clusters: rows min/median/max 8/8/64")
}
