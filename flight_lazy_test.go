package sqlts

// A run registers its flight only once it can be seen: at its first engine
// checkpoint, its first progress flush or its fan-out, and at once when it
// may block on admission. These tests pin both sides of that rule, the
// warm envelope's allocations, and the statement-stats entry a plan keeps.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// fig5SQL is the paper's Example 4 over its fifteen-row Figure 5 series
// (fig5DB): 21 predicate evaluations, no match.
const fig5SQL = `
	SELECT X.date AS start_date, T.price AS end_price
	FROM fig5 SEQUENCE BY date AS (X, Y, Z, T)
	WHERE X.price < X.previous.price
	  AND Y.price < Y.previous.price AND Y.price > 40 AND Y.price < 50
	  AND Z.price > Z.previous.price AND Z.price < 52
	  AND T.price > T.previous.price`

func fig5DB(t testing.TB) *DB {
	t.Helper()
	db := New()
	db.RegisterTable(workload.SeriesTable("fig5", 10957, []float64{55, 50, 45, 57, 54, 50, 47, 49, 45, 42, 55, 57, 59, 60, 57}))
	return db
}

// TestFlightLazyWarmRuns: a thousand warm Figure 5 queries end long before
// a checkpoint, so none of them enters the registry or moves the
// flights gauge, and yet every event carries an id of its own, which
// KillQuery no longer finds.
func TestFlightLazyWarmRuns(t *testing.T) {
	db := fig5DB(t)
	sink := &captureSink{}
	db.SetEventSink(sink)
	for i := 0; i < 1000; i++ {
		res, err := db.Query(fig5SQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PredEvals != 21 {
			t.Fatalf("run %d: %d pred-evals, want 21", i, res.Stats.PredEvals)
		}
	}
	if n := db.flight.flights.Enrolled(); n != 0 {
		t.Errorf("%d warm runs registered a flight; want none", n)
	}
	if v := db.metrics.flightsActive.Value(); v != 0 {
		t.Errorf("sqlts_flights_active = %d after the runs", v)
	}
	if len(sink.events) != 1000 {
		t.Fatalf("sink received %d events, want 1000", len(sink.events))
	}
	ids := map[uint64]bool{}
	for i, ev := range sink.events {
		if ev.QueryID == 0 || ids[ev.QueryID] {
			t.Fatalf("event %d: QueryID %d is zero or repeated", i, ev.QueryID)
		}
		ids[ev.QueryID] = true
	}
	if err := db.KillQuery(sink.events[999].QueryID, ""); !errors.Is(err, ErrNoSuchQuery) {
		t.Errorf("KillQuery of a finished unregistered run: %v; want ErrNoSuchQuery", err)
	}
}

// TestFlightLazyLongRun: a one-lane run with no context, no budget and no
// fault point armed registers on its way, and is listed before its search
// is over, with its cluster total, running, and an operator kill stops it
// with ErrKilled. Over 20,000 ten-row clusters it registers at its first
// progress flush on the per-cluster loop (a cross condition keeps every
// cluster under one checkpoint) and at its first checkpoint or flush on
// the chunk-wide pure loop; over one 200,000-row cluster, which the
// per-cluster loop flushes only once searched, at its first engine
// checkpoint.
func TestFlightLazyLongRun(t *testing.T) {
	defer testutil.LeakCheck(t)()
	const generic = `
		SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, *Y, Z)
		WHERE Y.price < Y.previous.price AND Z.price > X.price`
	for _, tc := range []struct {
		name           string
		clusters, rows int
		sql, loop      string
	}{
		{"pure loop", 20000, 10, strings.Replace(doubleBottomSQL, "FROM djia", "FROM quote CLUSTER BY name", 1), "search loop: pure-mask"},
		{"per-cluster loop", 20000, 10, generic, "search loop: generic"},
		{"one cluster", 1, 200000, generic, "search loop: generic"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := New()
			db.RegisterTable(workload.ClusterWalks("quote", 3, tc.clusters, tc.rows, 50))
			if err := db.DeclarePositive("quote", "price"); err != nil {
				t.Fatal(err)
			}
			q, err := db.Prepare(tc.sql)
			if err != nil {
				t.Fatal(err)
			}
			if plan := q.Explain(); !strings.Contains(plan, tc.loop) {
				t.Fatalf("plan does not take the %q loop:\n%s", tc.loop, plan)
			}
			opts := RunOptions{MaxWorkers: 1}
			ref, err := q.RunWith(opts)
			if err != nil {
				t.Fatal(err)
			}
			// A killer lists and kills whatever is in flight while runs
			// repeat, for at most ten seconds: a run that never registers
			// is never killed.
			var killed []obs.FlightSnapshot
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, s := range db.ActiveQueries() {
						if db.KillQuery(s.ID, "lazy") == nil {
							killed = append(killed, s)
						}
					}
				}
			}()
			for deadline := time.Now().Add(10 * time.Second); err == nil && time.Now().Before(deadline); {
				var res *Result
				if res, err = q.RunWith(opts); err == nil {
					resultsEqual(t, "unkilled run", ref, res)
				}
			}
			close(stop)
			<-done
			if !errors.Is(err, ErrKilled) || !errors.Is(err, ErrCanceled) {
				t.Fatalf("after ten seconds of runs and kills the last run returned %v; want ErrKilled", err)
			}
			if len(killed) == 0 {
				t.Fatal("the run failed, but no kill was delivered")
			}
			for _, s := range killed {
				if s.ClustersTotal != int64(tc.clusters) || s.ClustersDone >= s.ClustersTotal || s.Phase != "running" || s.StartTime.IsZero() {
					t.Errorf("listed flight: %d of %d clusters done, phase %s, start %v; want fewer than %d, running, set",
						s.ClustersDone, s.ClustersTotal, s.Phase, s.StartTime, tc.clusters)
				}
			}
			if n := len(db.ActiveQueries()); n != 0 {
				t.Errorf("registry holds %d flights after the runs", n)
			}
		})
	}
}

// TestFlightLazyQueuedRunKillable: a context run that waits on a gated
// admission registers before it waits, so it is listed as queued while
// another query holds the only slot, and a kill interrupts its wait.
func TestFlightLazyQueuedRunKillable(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db, q := admissionDB(t)
	db.SetMaxConcurrentQueries(1)
	defer db.SetMaxConcurrentQueries(0)

	entered, release := parkFirstExecution(t)
	defer release()
	first := make(chan error, 1)
	go func() {
		_, err := q.Run()
		first <- err
	}()
	<-entered

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	second := make(chan error, 1)
	go func() {
		_, err := q.RunWith(RunOptions{Context: ctx})
		second <- err
	}()
	var id uint64
	for deadline := time.Now().Add(5 * time.Second); id == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the waiting run was never listed as queued")
		}
		for _, s := range db.ActiveQueries() {
			if s.Phase == "queued" {
				id = s.ID
			}
		}
	}
	if err := db.KillQuery(id, "queued"); err != nil {
		t.Fatal(err)
	}
	if err := <-second; !errors.Is(err, ErrKilled) {
		t.Fatalf("killed waiter: %v; want ErrKilled", err)
	}
	release()
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
}

// TestWarmTinyQueryAllocs pins the smallest warm op, the paper's Example 4
// over its fifteen-row Figure 5 series through db.Query (21 predicate
// evaluations, no match): the per-chunk blocks are sized from what the
// first match needs, so a run that finds none pays for none, and the plan
// is found by its text, with its partition's slot and a batch run its
// pattern keeps (its control, its lane and the lane's executor), and lends
// the result its column names and types. So the op allocates its Query
// handle and its Result, and no header copy, flight, run control or
// interrupt closure. The plan's pattern keeps the batch run from its first
// run on, so a never-seen statement over a cached pattern takes it too.
func TestWarmTinyQueryAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	db := fig5DB(t)
	q, err := db.Prepare(fig5SQL)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := db.Query(fig5SQL)
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.PredEvals != 21 {
			t.Fatalf("Figure 5: %v; want 21 pred-evals", res.Stats)
		}
		if len(keptRuns(q)) != 1 {
			t.Fatalf("after run %d the plan's pattern keeps no batch run", i+1)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := db.Query(fig5SQL); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("warm Figure 5 db.Query allocates %.1f objects, want at most 2", allocs)
	} else {
		t.Logf("warm Figure 5 db.Query: %.1f objects", allocs)
	}
}

// TestPlanStmtEntryFollowsReset: a plan keeps its statement-stats entry
// from run to run, and after ResetStatementStats, a capacity of 0 and a
// positive capacity again its runs land in the entry the store lists —
// never in one it dropped.
func TestPlanStmtEntryFollowsReset(t *testing.T) {
	db := fig5DB(t)
	run := func(sql string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		}
	}
	calls := func(key string) int64 {
		var n int64
		for _, s := range db.StatementStats() {
			if s.SQL == key {
				n += s.Calls
			}
		}
		return n
	}
	q, err := db.Prepare(fig5SQL)
	if err != nil {
		t.Fatal(err)
	}
	key := q.plan.key

	run(fig5SQL, 3)
	if n := calls(key); n != 3 {
		t.Fatalf("before any reset: %d calls, want 3", n)
	}
	db.ResetStatementStats()
	run(fig5SQL, 2)
	if n := calls(key); n != 2 {
		t.Errorf("after ResetStatementStats: %d calls, want 2", n)
	}
	db.SetStatementStatsCapacity(0)
	run(fig5SQL, 2)
	if n := len(db.StatementStats()); n != 0 {
		t.Errorf("tracking disabled, yet the store lists %d entries", n)
	}
	db.SetStatementStatsCapacity(8)
	run(fig5SQL, 4)
	if n := calls(key); n != 4 {
		t.Errorf("after capacity 0 then 8: %d calls, want 4", n)
	}

	// At capacity the plan's runs fold into the overflow entry, and a
	// larger capacity gives them their own again.
	const other = `SELECT X.price FROM fig5 SEQUENCE BY date AS (X, Y) WHERE Y.price > X.price`
	db.ResetStatementStats()
	db.SetStatementStatsCapacity(1)
	run(other, 1)
	run(fig5SQL, 2)
	if n, o := calls(key), calls(obs.OverflowKey); n != 0 || o != 2 {
		t.Errorf("at capacity: %d own calls and %d in the overflow entry; want 0 and 2", n, o)
	}
	db.SetStatementStatsCapacity(2)
	run(fig5SQL, 3)
	if n, o := calls(key), calls(obs.OverflowKey); n != 3 || o != 2 {
		t.Errorf("after raising the capacity: %d own calls, %d in the overflow entry; want 3 and 2", n, o)
	}
}
