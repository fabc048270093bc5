package sqlts_test

// Tests for the adaptive optimizer (PR 8): measured naive-vs-OPS savings
// flip the Auto executor, and the per-statement pred-eval count may only
// ever drop (flips happen only when naive is no worse).

import (
	"strings"
	"testing"
	"time"

	"sqlts"
	"sqlts/internal/obs"
	"sqlts/internal/workload"
)

// skewedDB builds a table whose price column has strongly skewed
// selectivity: almost every row is ≥ 10, a handful are 1.
func skewedDB(t *testing.T, n int) *sqlts.DB {
	t.Helper()
	prices := make([]float64, n)
	for i := range prices {
		prices[i] = 10 + float64(i%7)
		if i%20 == 0 {
			prices[i] = 1 // ~5% satisfy price < 5
		}
	}
	db := sqlts.New()
	db.RegisterTable(workload.SeriesTable("t", 1000, prices))
	return db
}

func stmtSnapshot(t *testing.T, db *sqlts.DB, sql string) obs.StmtSnapshot {
	t.Helper()
	for _, sn := range db.StatementStats() {
		if strings.Contains(sn.SQL, "from t") {
			return sn
		}
	}
	t.Fatalf("no statement stats entry for %q", sql)
	return obs.StmtSnapshot{}
}

// TestAdaptiveExecutorFlip observes a statement where OPS saves nothing
// over naive (element 1 rejects every row, so both executors spend
// exactly one eval per row) under both executors, then checks that Auto
// runs flip to the naive executor without the pred-eval count moving.
func TestAdaptiveExecutorFlip(t *testing.T) {
	db := skewedDB(t, 300)
	sql := `SELECT X.date FROM t SEQUENCE BY date AS (X, Y)
		WHERE X.price > 1000000 AND Y.price > 0`

	var first int64 = -1
	for i := 0; i < 130; i++ {
		opts := sqlts.RunOptions{}
		if i%2 == 1 {
			opts.Executor = sqlts.NaiveExec
		}
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		res, err := q.RunWith(opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if first < 0 {
			first = res.Stats.PredEvals
		}
		if res.Stats.PredEvals != first {
			t.Fatalf("run %d: pred-evals moved: %d != %d", i, res.Stats.PredEvals, first)
		}
	}

	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	ex := q.Explain()
	if !strings.Contains(ex, "auto executor: naive") {
		t.Fatalf("expected the Auto executor to flip to naive, EXPLAIN:\n%s", ex)
	}
	sn := stmtSnapshot(t, db, sql)
	if sn.PlanRevision < 1 {
		t.Fatalf("expected a replan, got revision %d", sn.PlanRevision)
	}

	// Every record of a flipped Auto run names the executor that ran.
	db.SetSlowQueryThreshold(time.Nanosecond, nil)
	if _, err := q.Run(); err != nil {
		t.Fatal(err)
	}
	rec, ev := db.SlowLog()[0], db.RecentEvents()[0]
	if rec.Executor != "naive" || ev.Executor != "naive" || ev.PlanRevision < 1 ||
		!strings.Contains(rec.Report, "executor=naive") {
		t.Fatalf("flipped run labelled slow-log %q, event %q (revision %d), report:\n%s",
			rec.Executor, ev.Executor, ev.PlanRevision, rec.Report)
	}
}

// TestNoVectorizeOption pins the satellite toggle: results and counters
// are identical with and without the batch mask kernels.
func TestNoVectorizeOption(t *testing.T) {
	db := skewedDB(t, 500)
	sql := `SELECT X.date FROM t SEQUENCE BY date AS (X, *Y, Z)
		WHERE X.price > 5 AND Y.price < Y.previous.price AND Z.price > 1.02 * Z.previous.price`
	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := q.RunWith(sqlts.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	row, err := q.RunWith(sqlts.RunOptions{NoVectorize: true})
	if err != nil {
		t.Fatal(err)
	}
	interp, err := q.RunWith(sqlts.RunOptions{NoVectorize: true, NoKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Vectorized() {
		t.Fatal("default run did not vectorize")
	}
	if row.Vectorized() || interp.Vectorized() {
		t.Fatal("NoVectorize run reported vectorized")
	}
	if vec.Stats != row.Stats || vec.Stats != interp.Stats {
		t.Fatalf("stats diverge: vec=%v row=%v interp=%v", vec.Stats, row.Stats, interp.Stats)
	}
	if len(vec.Rows) != len(row.Rows) || len(vec.Rows) != len(interp.Rows) {
		t.Fatalf("row counts diverge: %d/%d/%d", len(vec.Rows), len(row.Rows), len(interp.Rows))
	}
}
