package sqlts_test

import (
	"reflect"
	"testing"

	"sqlts"
	"sqlts/internal/workload"
	"sqlts/ta"
)

// TestDriverPredEvalsPin pins the paper's cost metric on the §7
// double-bottom corpus: at any worker count, from the partition cache and
// past it (NoCache), the run reports exactly 11,972 predicate evaluations
// and the serial run's rows, Stats and Matches.
func TestDriverPredEvalsPin(t *testing.T) {
	const pinnedPredEvals = 11972
	prices := workload.DJIA25Years(1)
	for i := 0; i < 12; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/13)
	}
	db := sqlts.New()
	db.RegisterTable(workload.SeriesTable("djia", 2557, prices))
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(ta.DoubleBottom("djia", 0.02))
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts sqlts.RunOptions) *sqlts.Result {
		t.Helper()
		res, err := q.RunWith(opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(sqlts.RunOptions{})
	for _, opts := range []sqlts.RunOptions{
		{MaxWorkers: 1}, {MaxWorkers: 2}, {MaxWorkers: 3}, {MaxWorkers: 8}, {NoCache: true},
	} {
		got := run(opts)
		if got.Stats.PredEvals != pinnedPredEvals {
			t.Fatalf("%+v: pred-evals = %d, want %d", opts, got.Stats.PredEvals, pinnedPredEvals)
		}
		if !reflect.DeepEqual(serial.Rows, got.Rows) || serial.Stats != got.Stats ||
			!reflect.DeepEqual(serial.Matches(), got.Matches()) {
			t.Fatalf("%+v: the result differs from the serial run's", opts)
		}
	}
}
