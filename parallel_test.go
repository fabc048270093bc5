package sqlts

import (
	"fmt"
	"testing"

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

// TestParallelKernelMatchesInterpreter crosses the two execution axes:
// serial vs parallel and kernel vs interpreter must all agree on rows
// and on pred-evals (the paper's metric is execution-strategy
// independent).
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
	ref, err := q.RunWith(RunOptions{NoKernel: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("workload produced no matches; adjust parameters")
	}
	for _, c := range []struct {
		label string
		opts  RunOptions
	}{
		{"serial+kernel", RunOptions{}},
		{"parallel+kernel", RunOptions{MaxWorkers: 4}},
		{"parallel+interp", RunOptions{MaxWorkers: 4, NoKernel: true}},
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
