package sqlts

import (
	"fmt"
	"reflect"
	"testing"

	"sqlts/internal/engine"
	"sqlts/internal/storage"
	"sqlts/internal/workload"
)

// TestParallelMatchesSerial: the parallel execution must produce exactly
// the serial result, rows in the same order, across many clusters.
func TestParallelMatchesSerial(t *testing.T) {
	db := quoteDB(t)
	for s := 0; s < 40; s++ {
		name := fmt.Sprintf("S%02d", s)
		prices := workload.GeometricWalk(workload.WalkConfig{
			Seed: int64(s + 1), N: 300, Start: 50 + float64(s), Drift: 0, Vol: 0.02,
		})
		insertSeries(t, db, name, 10000, prices...)
	}
	q, err := db.Prepare(`
		SELECT X.name, FIRST(Y).date, COUNT(Y) AS days
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, Z)
		WHERE X.price >= X.previous.price
		  AND Y.price < 0.99 * Y.previous.price
		  AND Z.price > Z.previous.price`)
	if err != nil {
		t.Fatal(err)
	}

	serial, err := q.RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := q.RunWith(RunOptions{MaxWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Rows) == 0 {
		t.Fatal("workload produced no matches; adjust parameters")
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("serial %d rows, parallel %d", len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		for c := range serial.Rows[i] {
			if !valuesEqual(serial.Rows[i][c], parallel.Rows[i][c]) {
				t.Fatalf("row %d col %d: serial %v parallel %v", i, c, serial.Rows[i][c], parallel.Rows[i][c])
			}
		}
	}
	if serial.Stats.PredEvals != parallel.Stats.PredEvals {
		t.Errorf("stats differ: serial %d evals, parallel %d", serial.Stats.PredEvals, parallel.Stats.PredEvals)
	}
	if len(serial.Matches) != len(parallel.Matches) {
		t.Errorf("cluster match groups differ: %d vs %d", len(serial.Matches), len(parallel.Matches))
	}
}

// interpreted searches q's clusters with an OPS executor that has no
// kernel attached, so that every probe goes through the condition
// interpreter: the reference the serving path's kernel runs are held to.
func interpreted(t testing.TB, q *Query) (engine.Stats, []ClusterMatches) {
	t.Helper()
	c := q.plan.compiled
	part, _, err := q.db.partition(q.plan, true)
	if err != nil {
		t.Fatal(err)
	}
	o := engine.NewOPS(c.Pattern, q.plan.tables, engine.OPSConfig{})
	var st engine.Stats
	var cms []ClusterMatches
	for i, seq := range part.Groups.Slice() {
		ms, s := o.FindAll(seq)
		st.Add(s)
		if len(ms) > 0 {
			cms = append(cms, ClusterMatches{Cluster: i, Matches: ms})
		}
	}
	return st, cms
}

// TestParallelKernelMatchesInterpreter crosses the two execution axes:
// serial and parallel runs of the plan's kernel must agree with the
// interpreter on rows, matches and counters (the paper's metric is
// execution-strategy independent).
func TestParallelKernelMatchesInterpreter(t *testing.T) {
	db := quoteDB(t)
	for s := 0; s < 24; s++ {
		name := fmt.Sprintf("K%02d", s)
		prices := workload.GeometricWalk(workload.WalkConfig{
			Seed: int64(100 + s), N: 250, Start: 40 + float64(s), Drift: 0, Vol: 0.02,
		})
		insertSeries(t, db, name, 10000, prices...)
	}
	q, err := db.Prepare(`
		SELECT X.name, FIRST(Y).date, COUNT(Y) AS days
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, Z)
		WHERE X.price >= X.previous.price
		  AND Y.price < 0.99 * Y.previous.price
		  AND Z.price > Z.previous.price`)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := q.RunWith(RunOptions{MaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("workload produced no matches; adjust parameters")
	}
	if st, ms := interpreted(t, q); st != ref.Stats || !reflect.DeepEqual(ms, ref.Matches) {
		t.Fatalf("the interpreter found %+v over %d matched clusters, the kernel %+v over %d", st, len(ms), ref.Stats, len(ref.Matches))
	}
	for _, c := range []struct {
		label string
		opts  RunOptions
	}{
		{"elastic", RunOptions{}},
		{"parallel", RunOptions{MaxWorkers: 4}},
	} {
		res, err := q.RunWith(c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		if len(res.Rows) != len(ref.Rows) {
			t.Fatalf("%s: %d rows, reference %d", c.label, len(res.Rows), len(ref.Rows))
		}
		for i := range ref.Rows {
			for col := range ref.Rows[i] {
				if !valuesEqual(ref.Rows[i][col], res.Rows[i][col]) {
					t.Fatalf("%s: row %d col %d: %v, reference %v",
						c.label, i, col, res.Rows[i][col], ref.Rows[i][col])
				}
			}
		}
		if res.Stats.PredEvals != ref.Stats.PredEvals {
			t.Errorf("%s: %d pred-evals, reference %d", c.label, res.Stats.PredEvals, ref.Stats.PredEvals)
		}
	}
}

func valuesEqual(a, b storage.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.Equal(b)
}

// TestAggregateThroughSQL: span aggregates end to end, on the Example 8
// query shape.
func TestAggregateThroughSQL(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "ACME", 10000, 20, 21, 23, 24, 22, 20, 18, 15, 14, 18, 21)
	res, err := db.Query(`
		SELECT COUNT(Y) AS falldays, MIN(Y.price) AS bottom, AVG(Z.price) AS recovery
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (*X, *Y, *Z)
		WHERE X.price > X.previous.price
		  AND Y.price < Y.previous.price
		  AND Z.price > Z.previous.price`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
	row := res.Rows[0]
	if row[0].Int() != 5 { // falling days: 22 20 18 15 14
		t.Errorf("COUNT(Y) = %v, want 5", row[0])
	}
	if row[1].Float() != 14 {
		t.Errorf("MIN(Y.price) = %v, want 14", row[1])
	}
	if row[2].Float() != 19.5 { // (18+21)/2
		t.Errorf("AVG(Z.price) = %v, want 19.5", row[2])
	}
}
