package sqlts

// Tests for the streaming push path's ownership rules: the matchers copy
// tuples into windows they reuse, routing and coercion run in reused
// scratch, and the flight's live counters are ticked per push.

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"

	"sqlts/internal/obs"
	"sqlts/internal/storage"
)

const upTickSQL = `
	SELECT X.name, X.date, Y.price FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y)
	WHERE Y.price > X.price`

// TestStreamOrderingAfterSlotReuse: the arrival-order check compares with
// a copy of the cluster's previous SEQUENCE BY values, so it still fires
// after the previous tuple's window slot was pruned and reused (a
// two-element pattern keeps two or three tuples in a four-slot window).
func TestStreamOrderingAfterSlotReuse(t *testing.T) {
	db := quoteDB(t)
	matches := 0
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { matches++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// One reused argument slice: Push may not keep a reference to it.
	vals := make([]storage.Value, 3)
	push := func(name string, day int64, price float64) error {
		vals[0], vals[1], vals[2] = storage.NewString(name), storage.NewDateDays(day), storage.NewFloat(price)
		return st.Push(vals...)
	}
	for day := int64(0); day < 40; day++ {
		for _, name := range []string{"IBM", "INTC"} {
			if err := push(name, 100+day, float64(10+day%3)); err != nil {
				t.Fatalf("day %d %s: %v", day, name, err)
			}
		}
		// Every slot of the four-slot windows has been reused several
		// times over by now; a stale tuple is still rejected, per cluster.
		if day >= 8 {
			if err := push("IBM", 100+day-1, 99); err == nil {
				t.Fatalf("day %d: out-of-order tuple accepted", day)
			}
		}
	}
	if err := push("INTC", 139, 1); err != nil {
		t.Errorf("a tuple equal in date to the previous one was rejected: %v", err)
	}
	if matches == 0 {
		t.Error("no matches on a feed that rises every third day")
	}
}

// TestStreamNullCluster: a stream routes by the same type-tagged key
// batch clustering uses, so the NULL cluster and the cluster of the
// string 'NULL' stay apart. Merged, their alternating prices rise within
// one cluster and match.
func TestStreamNullCluster(t *testing.T) {
	db := quoteDB(t)
	tuples := []storage.Row{
		{storage.Null, storage.NewDateDays(1), storage.NewFloat(10)},
		{storage.NewString("NULL"), storage.NewDateDays(2), storage.NewFloat(20)},
		{storage.Null, storage.NewDateDays(3), storage.NewFloat(5)},
		{storage.NewString("NULL"), storage.NewDateDays(4), storage.NewFloat(8)},
	}
	var streamed []string
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(r storage.Row) error {
		streamed = append(streamed, fmtRow(r))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tuples {
		if err := st.Push(row...); err != nil {
			t.Fatal(err)
		}
		db.Table("quote").MustInsert(row...)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	batch, err := db.Query(upTickSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Rows) != 0 {
		t.Fatalf("batch matched across the two clusters: %v", batch.Rows)
	}
	if len(streamed) != len(batch.Rows) {
		t.Fatalf("stream found %d matches %v, batch %d", len(streamed), streamed, len(batch.Rows))
	}
}

// TestStreamFlightPredEvals: a streaming flight's live pred-evals are
// the matchers' own count after every push, on many small clusters
// (where no matcher reaches the engine's 1,024-eval checkpoint) as on
// one.
func TestStreamFlightPredEvals(t *testing.T) {
	db := quoteDB(t)
	srv := httptest.NewServer(db.DebugHandler())
	defer srv.Close()
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		name := fmt.Sprintf("S%02d", i%25)
		if err := st.Push(storage.NewString(name), storage.NewDateDays(int64(i)), storage.NewFloat(float64(i*7%11))); err != nil {
			t.Fatal(err)
		}
		if i%50 != 49 {
			continue
		}
		want := st.Stats().PredEvals
		if want == 0 {
			t.Fatal("no pred-evals after 50 pushes")
		}
		active := db.ActiveQueries()
		if len(active) != 1 || active[0].PredEvals != want || active[0].Pushes != int64(i+1) {
			t.Fatalf("after %d pushes: flights %+v, want one with %d pred-evals", i+1, active, want)
		}
	}
	// The same figure through the endpoint an operator reads.
	resp, err := srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Queries []obs.FlightSnapshot `json:"queries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Stats().PredEvals; len(list.Queries) != 1 || list.Queries[0].PredEvals != want {
		t.Fatalf("/debug/queries: %+v, want one flight with %d pred-evals", list.Queries, want)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStreamSteadyStateZeroAlloc: once its clusters exist and their
// windows have reached the size the pattern holds them at, a push
// allocates nothing: the tuple is coerced into stream scratch and copied
// into a window slot, the routing key is built in a reused buffer, and a
// full window compacts in place.
func TestStreamSteadyStateZeroAlloc(t *testing.T) {
	db := quoteDB(t)
	matches := 0
	st, err := db.Stream(upTickSQL, StreamOptions{}, func(storage.Row) error { matches++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const clusters = 64
	names := make([]storage.Value, clusters)
	for c := range names {
		names[c] = storage.NewString(fmt.Sprintf("S%02d", c))
	}
	day := int64(0)
	vals := make([]storage.Value, 3)
	round := func() {
		for c := 0; c < clusters; c++ {
			// A flat price never rises: no match in the batch. The
			// integer price is coerced to the column's REAL on every push.
			vals[0], vals[1], vals[2] = names[c], storage.NewDateDays(day), storage.NewInt(10)
			if err := st.Push(vals...); err != nil {
				t.Fatal(err)
			}
		}
		day++
	}
	for i := 0; i < 32; i++ {
		round() // warm: create the clusters, settle the windows
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Fatalf("a round of %d warm pushes allocated %.1f times, want 0", clusters, allocs)
	}
	if matches != 0 {
		t.Fatalf("%d matches on a flat feed", matches)
	}
}
