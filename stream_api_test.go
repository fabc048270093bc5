package sqlts

import (
	"fmt"
	"strings"
	"testing"

	"sqlts/internal/storage"
	"sqlts/internal/workload"
)

// TestStreamMatchesBatch: a continuous execution over interleaved
// clusters produces the same output rows as the batch execution over the
// same data.
func TestStreamMatchesBatch(t *testing.T) {
	db := quoteDB(t)
	seriesA := workload.GeometricWalk(workload.WalkConfig{Seed: 1, N: 400, Start: 50, Drift: 0, Vol: 0.02})
	seriesB := workload.GeometricWalk(workload.WalkConfig{Seed: 2, N: 400, Start: 90, Drift: 0, Vol: 0.015})
	insertSeries(t, db, "AAA", 10000, seriesA...)
	insertSeries(t, db, "BBB", 10000, seriesB...)

	const sql = `
		SELECT X.name, FIRST(Y).date AS fall_start, LAST(Y).date AS fall_end
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y, Z)
		WHERE X.price >= X.previous.price
		  AND Y.price < 0.99 * Y.previous.price
		  AND Z.price > Z.previous.price`

	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}

	var streamed []string
	stream, err := q.OpenStream(StreamOptions{}, func(row storage.Row) error {
		streamed = append(streamed, fmtRow(row))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Interleave the clusters tuple by tuple, as live feeds would.
	for i := 0; i < 400; i++ {
		for _, s := range []struct {
			name string
			v    float64
		}{{"AAA", seriesA[i]}, {"BBB", seriesB[i]}} {
			if err := stream.Push(
				storage.NewString(s.name),
				storage.NewDateDays(int64(10000+i)),
				storage.NewFloat(s.v),
			); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}

	want := map[string]int{}
	for _, row := range batch.Rows {
		want[fmtRow(row)]++
	}
	got := map[string]int{}
	for _, r := range streamed {
		got[r]++
	}
	if len(want) == 0 {
		t.Fatal("test needs at least one match; adjust the workload")
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("row %q: batch %d, stream %d", k, n, got[k])
		}
	}
	for k, n := range got {
		if want[k] != n {
			t.Errorf("unexpected streamed row %q (x%d)", k, n)
		}
	}
	if stream.Stats().Matches != len(streamed) {
		t.Errorf("stats matches %d != emitted %d", stream.Stats().Matches, len(streamed))
	}
}

func fmtRow(row storage.Row) string {
	parts := make([]string, len(row))
	for i, v := range row {
		parts[i] = v.String()
	}
	return strings.Join(parts, "|")
}

// TestStreamOrderingViolation: out-of-order tuples within a cluster are
// rejected.
func TestStreamOrderingViolation(t *testing.T) {
	db := quoteDB(t)
	q, err := db.Prepare(`
		SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
		WHERE Y.price > X.price`)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := q.OpenStream(StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	push := func(name string, day int64, price float64) error {
		return stream.Push(storage.NewString(name), storage.NewDateDays(day), storage.NewFloat(price))
	}
	if err := push("IBM", 100, 10); err != nil {
		t.Fatal(err)
	}
	if err := push("IBM", 99, 11); err == nil {
		t.Error("out-of-order tuple accepted")
	}
	// A different cluster has its own ordering.
	if err := push("INTC", 50, 10); err != nil {
		t.Errorf("other cluster rejected: %v", err)
	}
}

// TestStreamErrors covers the remaining error paths.
func TestStreamErrors(t *testing.T) {
	db := quoteDB(t)
	q, err := db.Prepare(`SELECT X.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`)
	if err != nil {
		t.Fatal(err)
	}

	// Sink errors abort the stream.
	stream, err := q.OpenStream(StreamOptions{}, func(storage.Row) error {
		return fmt.Errorf("sink boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stream.Push(storage.NewString("A"), storage.NewDateDays(1), storage.NewFloat(1)); err != nil {
		t.Fatal(err)
	}
	err = stream.Push(storage.NewString("A"), storage.NewDateDays(2), storage.NewFloat(2))
	if err == nil || !strings.Contains(err.Error(), "sink boom") {
		t.Errorf("sink error not surfaced: %v", err)
	}

	// Arity and type errors.
	stream2, _ := q.OpenStream(StreamOptions{}, func(storage.Row) error { return nil })
	if err := stream2.Push(storage.NewString("A")); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := stream2.Push(storage.NewInt(1), storage.NewDateDays(1), storage.NewFloat(1)); err == nil {
		t.Error("type mismatch accepted")
	}

	// Push after Close.
	if err := stream2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := stream2.Push(storage.NewString("A"), storage.NewDateDays(3), storage.NewFloat(1)); err == nil {
		t.Error("Push after Close accepted")
	}
	if err := stream2.Close(); err != nil {
		t.Error("second Close should be a no-op")
	}

	// Plain queries cannot stream.
	plain, err := db.Prepare(`SELECT price FROM quote WHERE price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.OpenStream(StreamOptions{}, func(storage.Row) error { return nil }); err == nil {
		t.Error("OpenStream on a plain query accepted")
	}
}

// TestStreamDoubleBottomLive pushes the simulated DJIA day by day and
// checks the double bottoms come out as they complete.
func TestStreamDoubleBottomLive(t *testing.T) {
	prices := workload.GeometricWalk(workload.WalkConfig{Seed: 4, N: 2000, Start: 1000, Drift: 0.0003, Vol: 0.011})
	for i := 0; i < 4; i++ {
		workload.PlantDoubleBottom(prices, 1+(i+1)*len(prices)/5)
	}
	db := New()
	db.MustExec(`CREATE TABLE djia (date DATE, price REAL)`)
	if err := db.DeclarePositive("djia", "price"); err != nil {
		t.Fatal(err)
	}
	// Batch reference over the same data.
	db.RegisterTable(workload.SeriesTable("djia", 2557, prices))
	q, err := db.Prepare(doubleBottomSQL)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}

	var live []string
	stream, err := q.OpenStream(StreamOptions{}, func(row storage.Row) error {
		live = append(live, fmtRow(row))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range prices {
		if err := stream.Push(storage.NewDateDays(int64(2557+i)), storage.NewFloat(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	if len(live) != len(batch.Rows) {
		t.Fatalf("stream found %d double bottoms, batch %d", len(live), len(batch.Rows))
	}
	for i, row := range batch.Rows {
		if fmtRow(row) != live[i] {
			t.Errorf("match %d differs: batch %q stream %q", i, fmtRow(row), live[i])
		}
	}
	if len(live) < 4 {
		t.Errorf("expected at least the 4 planted double bottoms, got %d", len(live))
	}
}

// TestStreamCloseOrderDeterministic: the rows a trailing star completes
// only at Close are delivered in first-arrival cluster order — the order
// the batch query returns the same rows in — and so identically on every
// run. 200 clusters each end inside a falling run, so every match is
// completed by the flush.
func TestStreamCloseOrderDeterministic(t *testing.T) {
	const clusters = 200
	const sql = `
		SELECT X.name, COUNT(Y) AS days
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (X, *Y)
		WHERE X.price > X.previous.price
		  AND Y.price < Y.previous.price`
	series := func(c int) []float64 {
		out := []float64{10, 12}
		for k := 0; k <= c%4; k++ { // a falling tail of one to four days
			out = append(out, 11-float64(k))
		}
		return out
	}
	db := quoteDB(t)
	for c := 0; c < clusters; c++ {
		// Names whose sort order is not their arrival order.
		insertSeries(t, db, fmt.Sprintf("S%03d", (c*37)%clusters), 10000, series(c)...)
	}
	q, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, row := range batch.Rows {
		want = append(want, fmtRow(row))
	}
	if len(want) != clusters {
		t.Fatalf("batch returned %d rows, want one per cluster (%d)", len(want), clusters)
	}
	for run := 0; run < 10; run++ {
		var got []string
		beforeClose := 0
		st, err := q.OpenStream(StreamOptions{}, func(row storage.Row) error {
			got = append(got, fmtRow(row))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for day := 0; day < 6; day++ { // date-major: the clusters interleave
			for c := 0; c < clusters; c++ {
				if s := series(c); day < len(s) {
					if err := st.Push(storage.NewString(fmt.Sprintf("S%03d", (c*37)%clusters)),
						storage.NewDateDays(int64(10000+day)), storage.NewFloat(s[day])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		beforeClose = len(got)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		if beforeClose != 0 {
			t.Fatalf("run %d: %d rows were delivered before Close; the test wants them all from the flush", run, beforeClose)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Fatalf("run %d: Close delivered %d rows in an order other than the batch query's %d", run, len(got), len(want))
		}
	}
}
