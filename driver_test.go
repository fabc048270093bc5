package sqlts

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"sqlts/internal/fault"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

const driverSQL = `
	SELECT X.name, FIRST(Y).date, COUNT(Y) AS days
	FROM quote
	  CLUSTER BY name
	  SEQUENCE BY date
	  AS (X, *Y, Z)
	WHERE X.price >= X.previous.price
	  AND Y.price < 0.99 * Y.previous.price
	  AND Z.price > Z.previous.price`

// driverDB serves a quote table of n thirty-row clusters (none for
// n = 0), sharded when shards > 1. The adaptive optimizer is off so the
// hundreds of runs below all execute the plan as compiled.
func driverDB(t testing.TB, n, shards int) (*DB, *Query) {
	t.Helper()
	tbl := workload.ClusterWalks("quote", 11, max(n, 1), 30, 5)
	if n == 0 {
		tbl = storage.NewTable("quote", tbl.Schema)
	}
	db := New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	db.SetAdaptive(false)
	db.SetShards(shards)
	q, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// TestDriverDifferential: whatever the worker count, the partition
// source, the evaluation mode and the executor, the cluster driver
// returns rows, Stats, ClusterStats and Matches deep-equal to a
// one-worker NoCache run. Cluster counts straddle the seams of
// chunkSize for every worker count tried: where the list stops fitting
// one cluster per chunk, and a last chunk of one cluster.
func TestDriverDifferential(t *testing.T) {
	workers := []int{1, 2, 3, 8}
	counts := map[int]bool{0: true, 1: true}
	for _, w := range workers[1:] {
		seam := w * chunksPerWorker // the largest count with one-cluster chunks
		for _, n := range []int{seam - 1, seam, seam + 1, 3*seam + 1} {
			counts[n] = true
		}
	}
	var ns []int
	for n := range counts {
		ns = append(ns, n)
	}
	sort.Ints(ns)

	modes := []RunOptions{{}, {NoVectorize: true}, {NoKernel: true}}
	executors := []ExecutorKind{Auto, NaiveExec, OPSSkipExec}
	matched := false
	for _, n := range ns {
		_, flat := driverDB(t, n, 0)
		_, sharded := driverDB(t, n, 3)
		sources := []struct {
			name    string
			q       *Query
			noCache bool
		}{{"flat", flat, false}, {"sharded", sharded, false}, {"nocache", flat, true}}
		for _, ex := range executors {
			want, err := flat.RunWith(RunOptions{Executor: ex, MaxWorkers: 1, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(want.ClusterStats()) != n {
				t.Fatalf("n=%d: reference searched %d clusters", n, len(want.ClusterStats()))
			}
			matched = matched || len(want.Rows) > 0
			for _, src := range sources {
				for _, mode := range modes {
					for _, w := range workers {
						opts := mode
						opts.Executor, opts.MaxWorkers, opts.NoCache = ex, w, src.noCache
						label := fmt.Sprintf("n=%d %s %s workers=%d vec=%v kernel=%v", n, src.name, ex, w, !opts.NoVectorize, !opts.NoKernel)
						got, err := src.q.RunWith(opts)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if !reflect.DeepEqual(want.Rows, got.Rows) {
							t.Fatalf("%s: rows differ (%d vs %d)", label, len(want.Rows), len(got.Rows))
						}
						if want.Stats != got.Stats {
							t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
						}
						if !reflect.DeepEqual(want.ClusterStats(), got.ClusterStats()) {
							t.Fatalf("%s: per-cluster stats differ", label)
						}
						if !reflect.DeepEqual(want.Matches, got.Matches) {
							t.Fatalf("%s: cluster matches differ", label)
						}
					}
				}
			}
		}
	}
	if !matched {
		t.Fatal("workload produced no matches; adjust parameters")
	}
}

// TestDriverFailureOrder: with four workers, a failure in a later
// cluster that happens first in time must lose to a failure in an
// earlier cluster — the run reports the lowest-indexed failed cluster's
// typed error, returns no partial Result, and leaves no goroutine.
//
// sqlts.execute.cluster fires before every cluster's search but is not
// told which, so the hook below makes the order knowable: it holds the
// four workers at their first clusters (chunks 0–3, one each), lets one
// run on alone — from there its hits are its own chunk's remaining
// clusters, then chunks 4, 5, … in order — fails it at cluster kHigh,
// and only then releases the other three to fail at the head of theirs.
func TestDriverFailureOrder(t *testing.T) {
	const n, workers = 40, 4
	chunk := chunkSize(n, workers)
	kHigh := workers*chunk + 1 // second cluster of chunk 4
	errHigh, errLow := errors.New("later cluster, failed first"), errors.New("earlier cluster, failed last")

	for _, tc := range []struct {
		name  string
		low   func() error
		check func(error) bool
	}{
		{"error", func() error { return errLow }, func(err error) bool { return errors.Is(err, errLow) }},
		{"panic", func() error { panic("earlier cluster, panicked last") }, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe) && pe.Value == "earlier cluster, panicked last" && len(pe.Stack) > 0
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer fault.Reset()
			defer testutil.LeakCheck(t)()
			_, q := driverDB(t, n, 0)

			var mu sync.Mutex
			arrived, alone := 0, 0
			all, failedHigh := make(chan struct{}), make(chan struct{})
			if err := fault.Arm("sqlts.execute.cluster", fault.Action{Fn: func() error {
				mu.Lock()
				if arrived < workers {
					arrived++
					first := arrived == 1
					if arrived == workers {
						close(all)
					}
					mu.Unlock()
					<-all
					if first {
						return nil
					}
					<-failedHigh
					return tc.low()
				}
				alone++
				hit := alone
				mu.Unlock()
				// The lone worker's hits: chunk-1 more in its first chunk,
				// then clusters workers*chunk, workers*chunk+1, …
				if hit == chunk-1+kHigh-workers*chunk+1 {
					close(failedHigh)
					return errHigh
				}
				return nil
			}}); err != nil {
				t.Fatal(err)
			}
			res, err := q.RunWith(RunOptions{MaxWorkers: workers})
			if res != nil {
				t.Fatalf("failed run returned a partial result (%d rows)", len(res.Rows))
			}
			if !tc.check(err) {
				t.Fatalf("err = %v; want the earlier cluster's failure", err)
			}
			fault.Reset()
			if _, err := q.RunWith(RunOptions{MaxWorkers: workers}); err != nil {
				t.Fatalf("run after the failure: %v", err)
			}
		})
	}
}

// TestManyClusterRunAllocsFlat: what a warm run allocates does not grow
// with its cluster count. Ten times the clusters around the same four
// planted matches — per-cluster stats, flight ticks, executor set-up and
// result rows all come from per-chunk blocks — cost at most four objects
// more.
func TestManyClusterRunAllocsFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	warmAllocs := func(clusters int) float64 {
		db := New()
		db.RegisterTable(workload.ClusterWalks("quote", 1, clusters, 8, clusters/4))
		if err := db.DeclarePositive("quote", "price"); err != nil {
			t.Fatal(err)
		}
		sql := strings.Replace(doubleBottomSQL, "FROM djia", "FROM quote CLUSTER BY name", 1)
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.ClusterStats()) != clusters || res.Stats.Matches != 4 {
			t.Fatalf("%d clusters searched, %d matches; want %d and 4", len(res.ClusterStats()), res.Stats.Matches, clusters)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := db.Query(sql); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := warmAllocs(200), warmAllocs(2000)
	if many > few+4 {
		t.Errorf("a warm run over 2,000 clusters allocates %.0f objects, over 200 clusters %.0f: want within 4", many, few)
	}
}

// TestFigure5RunAllocs pins the smallest warm op, the paper's Example 4
// over its fifteen-row Figure 5 series through db.Query (21 predicate
// evaluations, no match): the per-chunk blocks are sized from what the
// first match needs, so a run that finds none pays for none.
func TestFigure5RunAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	db := New()
	db.RegisterTable(workload.SeriesTable("fig5", 10957, []float64{55, 50, 45, 57, 54, 50, 47, 49, 45, 42, 55, 57, 59, 60, 57}))
	const sql = `
		SELECT X.date AS start_date, T.price AS end_price
		FROM fig5 SEQUENCE BY date AS (X, Y, Z, T)
		WHERE X.price < X.previous.price
		  AND Y.price < Y.previous.price AND Y.price > 40 AND Y.price < 50
		  AND Z.price > Z.previous.price AND Z.price < 52
		  AND T.price > T.previous.price`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PredEvals != 21 {
		t.Fatalf("Figure 5: %v; want 21 pred-evals", res.Stats)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := db.Query(sql); err != nil {
			t.Fatal(err)
		}
	}); allocs > 15 {
		t.Errorf("warm Figure 5 db.Query allocates %.1f objects, want at most 15", allocs)
	} else {
		t.Logf("warm Figure 5 db.Query: %.1f objects", allocs)
	}
}
