package sqlts

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"sqlts/internal/engine"
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

// driverStatements are the statements of the driver's differential:
// driverSQL, whose masks answer every element, and the same pattern with
// X's condition squared — a product of columns, which no mask holds — so
// that X's probes take the interpreter (EvalElemMasked falls back to
// Pattern.EvalElem) beside Y's and Z's bit tests.
var driverStatements = []string{driverSQL, strings.Replace(driverSQL,
	"X.price >= X.previous.price", "X.price * X.price >= X.previous.price * X.previous.price", 1)}

// driverRows is the cluster length of the driver tests' tables; tallRows
// is a length at which 2*chunksPerWorker clusters — the fewest the elastic
// default fans out over — already hold elasticMinRows rows.
const (
	driverRows = 30
	tallRows   = elasticMinRows/(2*chunksPerWorker) + 8
)

// driverDB serves a quote table of n clusters of rowsPer rows (none for
// n = 0) and prepares driverSQL over it.
func driverDB(t testing.TB, n, rowsPer int) (*DB, *Query) {
	t.Helper()
	tbl := workload.ClusterWalks("quote", 11, max(n, 1), rowsPer, 5)
	if n == 0 {
		tbl = storage.NewTable("quote", tbl.Schema)
	}
	db := New()
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}
	return db, q
}

// keptRuns returns the batch runs the pool of q's pattern keeps.
func keptRuns(q *Query) []*batchRun {
	p := &q.plan.art.runs
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.free)
}

// assertNoSearchers fails when the process-wide searcher count has not
// returned to zero: with no query running, every caller and every helper
// has given its token back.
func assertNoSearchers(t testing.TB) {
	t.Helper()
	if n := searchers.Load(); n != 0 {
		t.Errorf("searcher count = %d with no query running; want 0", n)
	}
}

// seamCounts returns cluster counts that straddle the seams of chunkSize
// for every lane count given — where the list stops fitting one cluster
// per chunk, and a last chunk of one cluster — beside 0 and 1.
func seamCounts(lanes ...int) []int {
	counts := map[int]bool{0: true, 1: true}
	for _, w := range lanes {
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
	return ns
}

// driverConfig is one way of choosing the lane count: RunOptions.MaxWorkers
// and, for the elastic default, the GOMAXPROCS it borrows against
// (0 leaves the process's).
type driverConfig struct{ workers, procs int }

func (c driverConfig) String() string {
	if c.workers == 0 {
		return fmt.Sprintf("elastic@%d", c.procs)
	}
	return fmt.Sprint(c.workers)
}

// checkDriverDifferential runs the driver's differential matrix: for every
// statement of stmts (indexes into driverStatements), cluster count in ns
// (clusters of rowsPer rows), executor, partition source and lane
// configuration, rows, Stats and Matches must deep-equal a
// one-lane NoCache run. It returns how many runs fanned out.
func checkDriverDifferential(t *testing.T, stmts []int, ns []int, rowsPer int, executors []ExecutorKind, configs []driverConfig) (fanned int) {
	t.Helper()
	matched := false
	for _, n := range ns {
		flatDB, _ := driverDB(t, n, rowsPer)
		for _, si := range stmts {
			sql := driverStatements[si]
			flat, err := flatDB.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			if k := flat.plan.kernel; (k.VecElems() == k.Len()) != (si == 0) {
				t.Fatalf("statement %d: %d of %d elements mask-compiled", si, k.VecElems(), k.Len())
			}
			sources := []struct {
				name    string
				q       *Query
				noCache bool
			}{{"flat", flat, false}, {"nocache", flat, true}}
			for _, ex := range executors {
				want, wantEv, err := flat.runMeasured(RunOptions{Executor: ex, MaxWorkers: 1, NoCache: true})
				if err != nil {
					t.Fatal(err)
				}
				if int(wantEv.Clusters) != n || wantEv.Workers != 1 {
					t.Fatalf("n=%d: reference searched %d clusters on %d lanes", n, wantEv.Clusters, wantEv.Workers)
				}
				matched = matched || len(want.Rows) > 0
				for _, src := range sources {
					for _, cfg := range configs {
						opts := RunOptions{Executor: ex, MaxWorkers: cfg.workers, NoCache: src.noCache}
						label := fmt.Sprintf("statement %d n=%d %s %s workers=%s", si, n, src.name, ex, cfg)
						prev := 0
						if cfg.procs > 0 {
							prev = runtime.GOMAXPROCS(cfg.procs)
						}
						got, ev, err := src.q.runMeasured(opts)
						if cfg.procs > 0 {
							runtime.GOMAXPROCS(prev)
						}
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if ev.HelpersBorrowed > 0 {
							fanned++
						}
						if !reflect.DeepEqual(want.Rows, got.Rows) {
							t.Fatalf("%s: rows differ (%d vs %d)", label, len(want.Rows), len(got.Rows))
						}
						if want.Stats != got.Stats {
							t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
						}
						if !reflect.DeepEqual(want.Matches(), got.Matches()) {
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
	assertNoSearchers(t)
	return fanned
}

// elasticConfigs is the default lane count at one, two and four cores.
var elasticConfigs = []driverConfig{{0, 1}, {0, 2}, {0, 4}}

// checkElasticDifferential is the differential matrix of the elastic
// default over clusters tall enough that it fans out from
// 2*chunksPerWorker of them up, around the chunk seams of two and four
// lanes. Tall clusters make slow tests, so the executor and the statement
// — which the driver only hands clusters to — are the default one and
// driverSQL alone; the short-cluster matrix of TestDriverDifferential
// varies both.
func checkElasticDifferential(t *testing.T, ns ...int) (fanned int) {
	t.Helper()
	return checkDriverDifferential(t, []int{0}, ns, tallRows, []ExecutorKind{OPSExec}, elasticConfigs)
}

// TestDriverDifferential: whatever the lane count — explicit, or the
// elastic default at GOMAXPROCS 1, 2 and 4 — the partition source, the
// executor and whether masks answer every element or leave one to the
// interpreter, the cluster driver returns rows, Stats and
// Matches deep-equal to a one-lane NoCache run.
// Cluster counts straddle the seams of chunkSize for every lane count
// tried. The explicit counts run over short clusters, where the default
// is below its threshold and must stay on one lane; the default runs again
// over clusters tall enough that it fans out from 2*chunksPerWorker
// clusters up.
func TestDriverDifferential(t *testing.T) {
	explicit := []driverConfig{{1, 0}, {2, 0}, {3, 0}, {8, 0}}
	checkDriverDifferential(t, []int{0, 1}, seamCounts(2, 3, 8), driverRows, []ExecutorKind{OPSExec, NaiveExec}, append(explicit, elasticConfigs...))
	if checkElasticDifferential(t, 1, 7, 8, 9, 15, 16, 17, 25) == 0 {
		t.Error("the elastic default never borrowed a helper")
	}
}

// TestDriverElasticYield: a borrowed helper that leaves — here forced, by
// the sqlts.driver.yield fault point, at every k-th claim any helper makes
// — keeps the chunks it finished in its lane and costs the result nothing:
// the elastic matrix still deep-equals the one-lane NoCache run, and a run
// that lost its helper says so.
func TestDriverElasticYield(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	for _, k := range []int64{1, 2, 3} {
		var claims atomic.Int64
		if err := fault.Arm("sqlts.driver.yield", fault.Action{Fn: func() error {
			if claims.Add(1)%k == 0 {
				return errors.New("leave")
			}
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
		// An armed fault point also takes the executors off their bulk
		// paths, so the matrix is cut to one count a side of each seam.
		if checkElasticDifferential(t, 8, 17, 25) == 0 {
			t.Errorf("k=%d: the elastic default never borrowed a helper", k)
		}
		if claims.Load() == 0 {
			t.Errorf("k=%d: no helper reached the yield point", k)
		}
	}
	fault.Reset()

	// A helper that leaves at its first claim searched nothing, and the run
	// reports one worker, one helper borrowed and one yielded. The caller's
	// lane is held at its first cluster until the helper has left, so that
	// chunks are still unclaimed when it does.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	left := make(chan struct{})
	if err := fault.Arm("sqlts.driver.yield", fault.Action{Fn: func() error {
		close(left)
		return errors.New("leave")
	}}); err != nil {
		t.Fatal(err)
	}
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{Times: 1, Fn: func() error {
		<-left
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	_, q := driverDB(t, 64, tallRows)
	_, ev, err := q.runMeasured(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Workers != 1 || ev.HelpersBorrowed != 1 || ev.HelpersYielded != 1 || ev.HelpersDenied != 0 {
		t.Errorf("workers=%d borrowed=%d yielded=%d denied=%d; want 1, 1, 1, 0", ev.Workers, ev.HelpersBorrowed, ev.HelpersYielded, ev.HelpersDenied)
	}
}

// TestDriverBudgetReturns: however a run ends — success, a failing
// cluster, a panicking predicate, an operator kill, a cancelled context —
// every token it took from the process-wide searcher count is back and no
// helper goroutine outlives it.
func TestDriverBudgetReturns(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	db, q := driverDB(t, 64, tallRows)
	db.SetFlightRecorder(true)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errBoom := errors.New("cluster failed")
	for _, tc := range []struct {
		name string
		act  fault.Action
		opts RunOptions
		ok   func(error) bool
	}{
		{"success", fault.Action{}, RunOptions{}, func(err error) bool { return err == nil }},
		{"failing cluster", fault.Action{Err: errBoom, After: 20}, RunOptions{}, func(err error) bool { return errors.Is(err, errBoom) }},
		{"panicking predicate", fault.Action{Panic: "predicate bug", After: 20}, RunOptions{}, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe)
		}},
		{"kill", fault.Action{After: 20, Times: 1, Fn: func() error {
			for _, f := range db.ActiveQueries() {
				db.KillQuery(f.ID, "test")
			}
			return nil
		}}, RunOptions{}, func(err error) bool { return errors.Is(err, ErrKilled) }},
		{"cancelled context", fault.Action{After: 20, Times: 1, Fn: func() error { cancel(); return nil }},
			RunOptions{Context: ctx}, func(err error) bool { return errors.Is(err, ErrCanceled) }},
	} {
		for _, workers := range []int{0, 3} {
			if tc.name != "success" {
				if err := fault.Arm("sqlts.execute.cluster", tc.act); err != nil {
					t.Fatal(err)
				}
			}
			opts := tc.opts
			opts.MaxWorkers = workers
			res, ev, err := q.runMeasured(opts)
			fault.Reset()
			if !tc.ok(err) || (err != nil && res != nil) {
				t.Errorf("%s, MaxWorkers %d: err = %v, result %v", tc.name, workers, err, res != nil)
			}
			if err == nil && ev.HelpersBorrowed == 0 {
				t.Errorf("%s, MaxWorkers %d: the run did not fan out", tc.name, workers)
			}
			assertNoSearchers(t)
		}
	}
}

// TestDriverBudgetRespected: eight elastic clients on a two-core budget.
// Every caller may always search and counts itself, and a helper is
// granted only while the count is under the budget, so at most budget-1
// helpers are ever out: the count, sampled before every cluster any lane
// searches, never passes clients + budget - 1, and it settles at zero.
func TestDriverBudgetRespected(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	const clients, budget, iters = 8, 2, 6
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(budget))
	_, q := driverDB(t, 64, tallRows)
	var peak atomic.Int64
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{Fn: func() error {
		n := searchers.Load()
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	var borrowed, denied atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				_, ev, err := q.runMeasured(RunOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				borrowed.Add(int64(ev.HelpersBorrowed))
				denied.Add(int64(ev.HelpersDenied))
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p < 1 || p > clients+budget-1 {
		t.Errorf("peak searcher count %d with %d clients on a budget of %d; want 1..%d", p, clients, budget, clients+budget-1)
	}
	if got := borrowed.Load() + denied.Load(); got != clients*iters*(budget-1) {
		t.Errorf("%d helpers borrowed + %d denied = %d; want one decision per run, %d", borrowed.Load(), denied.Load(), got, clients*iters*(budget-1))
	}
	assertNoSearchers(t)
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
			_, q := driverDB(t, n, driverRows)

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

// TestDriverFailedRunKeepsNothing: a run that fails — a cluster's error
// or a panicking predicate, on one lane and fanned out over three — gives
// its batch run nothing back to the pool of its plan's pattern, since its
// lanes may have stopped anywhere: the run it took from the pool is gone
// with it. The plan's next one-lane and fanned-out runs equal a NoCache
// run, and the pool keeps one run again.
func TestDriverFailedRunKeepsNothing(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	_, q := driverDB(t, 64, driverRows)
	render := func(res *Result) string { return fmt.Sprint(res.Rows, res.Matches(), res.Stats) }
	ref, err := q.RunWith(RunOptions{MaxWorkers: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("the statement finds nothing; the runs would agree on nothing")
	}
	want := render(ref)
	errBoom := errors.New("cluster failed")
	for _, tc := range []struct {
		name string
		act  fault.Action
		ok   func(error) bool
	}{
		{"failing cluster", fault.Action{Err: errBoom, After: 20}, func(err error) bool { return errors.Is(err, errBoom) }},
		{"panicking predicate", fault.Action{Panic: "predicate bug", After: 20}, func(err error) bool {
			var pe *PanicError
			return errors.As(err, &pe)
		}},
	} {
		for _, workers := range []int{1, 3} {
			label := fmt.Sprintf("%s, MaxWorkers %d", tc.name, workers)
			if n := len(keptRuns(q)); n != 1 {
				t.Fatalf("%s: the pool keeps %d runs before the failing run; want 1", label, n)
			}
			if err := fault.Arm("sqlts.execute.cluster", tc.act); err != nil {
				t.Fatal(err)
			}
			res, err := q.RunWith(RunOptions{MaxWorkers: workers})
			fault.Reset()
			if !tc.ok(err) || res != nil {
				t.Fatalf("%s: err = %v, result %v", label, err, res != nil)
			}
			if n := len(keptRuns(q)); n != 0 {
				t.Errorf("%s: the pool keeps %d runs after the failed run; want 0", label, n)
			}
			for _, next := range []int{1, 3} {
				res, ev, err := q.runMeasured(RunOptions{MaxWorkers: next})
				if err != nil {
					t.Fatalf("%s, then MaxWorkers %d: %v", label, next, err)
				}
				if render(res) != want || ev.HelpersBorrowed != next-1 {
					t.Errorf("%s, then MaxWorkers %d: %d helpers, and the result differs from the NoCache run's: %v",
						label, next, ev.HelpersBorrowed, render(res) != want)
				}
			}
		}
	}
	assertNoSearchers(t)
}

// TestManyClusterRunAllocsFlat: what a warm run allocates does not grow
// with its cluster count. Ten times the clusters around the same four
// planted matches — flight ticks, executor set-up and result rows, which
// come from the lane's blocks, reserved from the last run of the plan's
// pattern — cost not one object more, on one lane or on two. The second
// lane costs its goroutine and the two stitched slices (rows, match
// records) and nothing else: its executor and scratch blocks stay in the
// batch run the plan's pattern keeps from run to run, and the caller's lane,
// reserved for the whole result, takes in what the helper found without
// refilling. The executors' matches and spans are scratch that no result
// references, so a run allocates none.
func TestManyClusterRunAllocsFlat(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	warmAllocs := func(clusters, workers int) float64 {
		db := New()
		db.RegisterTable(workload.ClusterWalks("quote", 1, clusters, 8, clusters/4))
		if err := db.DeclarePositive("quote", "price"); err != nil {
			t.Fatal(err)
		}
		q, err := db.Prepare(strings.Replace(doubleBottomSQL, "FROM djia", "FROM quote CLUSTER BY name", 1))
		if err != nil {
			t.Fatal(err)
		}
		opts := RunOptions{MaxWorkers: workers}
		res, ev, err := q.runMeasured(opts)
		if err != nil {
			t.Fatal(err)
		}
		if int(ev.Clusters) != clusters || res.Stats.Matches != 4 || ev.HelpersBorrowed != workers-1 {
			t.Fatalf("%d clusters searched on %d lanes, %d matches; want %d, %d and 4", ev.Clusters, ev.HelpersBorrowed+1, res.Stats.Matches, clusters, workers)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := q.RunWith(opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := warmAllocs(200, 1), warmAllocs(2000, 1)
	if many > few || many > 5 {
		t.Errorf("a warm one-lane run over 2,000 clusters allocates %.0f objects, over 200 clusters %.0f: want the same, and at most 5", many, few)
	}
	if two := warmAllocs(2000, 2); two > many+3 {
		t.Errorf("a warm two-lane run over 2,000 clusters allocates %.0f objects, a one-lane run %.0f: want within 3", two, many)
	} else {
		t.Logf("a warm run over 2,000 clusters: %.0f objects on one lane (%.0f over 200 clusters), %.0f on two", many, few, two)
	}
}

// TestResultShapeIsAdvisory: the shape a plan remembers of its last result
// only sizes the next run's buffers. One handle's result grows across
// inserts (0, then 3, then 400 matches) and shrinks and grows between
// runs (Overlap alternating on the same handle); every run returns what a
// NoCache run through another plan returns, on one lane and on two, and
// reserves exactly what the run before it produced — never a high-water
// mark — whatever the lane count: the caller's lane holds the result.
func TestResultShapeIsAdvisory(t *testing.T) {
	db := quoteDB(t)
	for c := 0; c < 12; c++ {
		insertSeries(t, db, fmt.Sprintf("F%02d", c), 10000, 10, 10, 10, 10)
	}
	q, err := db.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}
	// The reference plan: same table, another DB, so another shape.
	refDB := New()
	refDB.RegisterTable(db.Table("quote"))
	if err := refDB.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	ref, err := refDB.Prepare(driverSQL)
	if err != nil {
		t.Fatal(err)
	}

	var last int // the matches the run before found
	run := func(label string, overlap bool, wantMatches int) {
		t.Helper()
		want, err := ref.RunWith(RunOptions{Overlap: overlap, MaxWorkers: 1, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if want.Stats.Matches != wantMatches {
			t.Fatalf("%s: the reference finds %d matches, the test wants %d", label, want.Stats.Matches, wantMatches)
		}
		for _, workers := range []int{1, 2} {
			if got := int(q.plan.art.matches.Load()); got != last {
				t.Errorf("%s, %d lanes: the run would reserve %d matches, the run before found %d", label, workers, got, last)
			}
			got, err := q.RunWith(RunOptions{Overlap: overlap, MaxWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Rows, got.Rows) || want.Stats != got.Stats ||
				!reflect.DeepEqual(want.Matches(), got.Matches()) {
				t.Fatalf("%s, %d lanes: result differs from the NoCache run (%+v, want %+v)", label, workers, got.Stats, want.Stats)
			}
			last = got.Stats.Matches
		}
	}
	run("no match yet", false, 0)
	for c := 0; c < 3; c++ {
		insertSeries(t, db, fmt.Sprintf("F%02d", c), 10004, 11, 9, 10)
	}
	run("three matches", false, 3)
	for c := 0; c < 397; c++ {
		// One occurrence left-maximal, two overlapping.
		insertSeries(t, db, fmt.Sprintf("Z%03d", c), 10000, 10, 11, 9, 10, 8, 9)
	}
	run("400 matches", false, 400)
	run("overlap on", true, 797)
	run("overlap off", false, 400)
	run("overlap on again", true, 797)
}

// TestFannedResultsOutliveHelperScratch: a helper's lane is scratch that
// its batch run, kept in the pool of the plan's pattern, empties and hands
// to the next fanned-out run, so all a result holds of what a helper found
// must be copies: row values in the caller's lane, match records in the
// stitched slice. Two-lane runs whose helper searched — every
// cluster slowed by the sqlts.execute.cluster fault point, so the helper
// gets chunks even on one core — alternate Overlap, so each run overwrites
// the helper's blocks with other matches. Once all have run, every result
// still reads as a one-lane run's, and the serial runs shared one batch
// run. Then four clients do the same at once, so the pool hands runs back
// and forth between goroutines, and keeps no more than GOMAXPROCS of them.
func TestFannedResultsOutliveHelperScratch(t *testing.T) {
	defer fault.Reset()
	_, q := driverDB(t, 64, driverRows)
	render := func(res *Result) string { return fmt.Sprint(res.Rows, res.Matches(), res.Stats) }
	var want [2]string
	for overlap := range want {
		res, err := q.RunWith(RunOptions{MaxWorkers: 1, NoCache: true, Overlap: overlap == 1})
		if err != nil {
			t.Fatal(err)
		}
		want[overlap] = render(res)
	}
	if want[0] == want[1] {
		t.Fatal("Overlap changes nothing on this table; the runs would not overwrite each other's scratch")
	}
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{Delay: 50 * time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	// runs makes n two-lane runs; most find their helper searching (a loaded
	// box may keep one off a core for a whole run), and at least one must.
	runs := func(n int) ([]*Result, error) {
		var results []*Result
		helped := 0
		for i := 0; i < n; i++ {
			res, ev, err := q.runMeasured(RunOptions{MaxWorkers: 2, Overlap: i%2 == 1})
			if err != nil {
				return nil, err
			}
			if ev.Workers == 2 {
				helped++
			}
			results = append(results, res)
		}
		if helped == 0 {
			return nil, fmt.Errorf("no helper searched a chunk in %d runs", n)
		}
		return results, nil
	}
	check := func(label string, results []*Result) {
		for i, res := range results {
			if render(res) != want[i%2] {
				t.Errorf("%s run %d: the result differs from the one-lane run's once later runs of the plan are done", label, i)
			}
		}
	}
	results, err := runs(6)
	if err != nil {
		t.Fatal(err)
	}
	check("serial", results)
	if n := len(keptRuns(q)); n != 1 {
		t.Errorf("the plan keeps %d runs after serial runs; want 1", n)
	}

	const clients = 4
	var wg sync.WaitGroup
	var each [clients][]*Result
	var errs [clients]error
	for c := range each {
		wg.Add(1)
		go func() {
			defer wg.Done()
			each[c], errs[c] = runs(6)
		}()
	}
	wg.Wait()
	for c := range each {
		if errs[c] != nil {
			t.Fatalf("client %d: %v", c, errs[c])
		}
		check(fmt.Sprintf("client %d", c), each[c])
	}
	if n := len(keptRuns(q)); n < 1 || n > runtime.GOMAXPROCS(0) {
		t.Errorf("the plan keeps %d runs after %d clients; want 1 to GOMAXPROCS", n, clients)
	}
}

// TestOneLaneResultsOutliveKeptExecutor: a pattern keeps the executors of
// its plans' runs in the batch runs of its pool, one per lane, and their
// match and span blocks are scratch they overwrite cluster after cluster:
// a result must hold nothing of them, only its own rows and match records. A NoCache
// run, a one-lane and a two-lane result, held across 100 later runs of
// their plan — Overlap, naive, two lanes, and EXPLAIN ANALYZE with another
// executor, whose naive comparison runs too, each finding other matches —
// still deep-equal what the interpreter finds outside the driver, and each
// other. And the kept executor is kept: two runs with the same options
// search with one.
func TestOneLaneResultsOutliveKeptExecutor(t *testing.T) {
	_, q := driverDB(t, 64, driverRows)
	c := q.plan.compiled
	stats, matches := interpreted(t, q)
	part, _, err := q.db.partition(q.plan, true)
	if err != nil {
		t.Fatal(err)
	}
	var rows []storage.Row
	for _, cm := range matches {
		for _, m := range cm.Matches {
			seq := storage.RowSeq(part.Groups.At(cm.Cluster))
			row, err := c.EvalSelectInto(make(storage.Row, len(c.OutNames)), &seq, m.Spans)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row)
		}
	}
	if len(rows) == 0 {
		t.Fatal("the statement finds nothing to hold")
	}
	var held [3]*Result
	for i, opts := range []RunOptions{{MaxWorkers: 1, NoCache: true}, {MaxWorkers: 1}, {MaxWorkers: 2}} {
		if held[i], err = q.RunWith(opts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		var err error
		switch i % 5 {
		case 0:
			_, err = q.RunWith(RunOptions{MaxWorkers: 1, Overlap: true})
		case 1:
			_, err = q.RunWith(RunOptions{MaxWorkers: 1, Executor: NaiveExec})
		case 2:
			_, err = q.RunWith(RunOptions{MaxWorkers: 2, Overlap: true})
		case 3:
			_, err = q.ExplainAnalyze(RunOptions{MaxWorkers: 1, Executor: NaiveExec, Overlap: true})
		default:
			_, err = q.RunWith(RunOptions{MaxWorkers: 1})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, got := range held {
		if !reflect.DeepEqual(got.Rows, rows) || !reflect.DeepEqual(got.Matches(), matches) || got.Stats != stats {
			t.Errorf("held result %d differs from the interpreter's once 100 later runs of its plan are done", i)
		}
	}
	kept := func() engine.Executor {
		t.Helper()
		if _, err := q.RunWith(RunOptions{MaxWorkers: 1}); err != nil {
			t.Fatal(err)
		}
		kept := keptRuns(q)
		if len(kept) != 1 || len(kept[0].lanes) != 1 || kept[0].lanes[0].ex == nil {
			t.Fatal("the plan keeps no one-lane run after a one-lane run")
		}
		return kept[0].lanes[0].ex
	}
	if kept() != kept() {
		t.Error("two one-lane runs with the same options built two executors")
	}
}

// TestResultMatchesFromBounds: a result records each match as its
// cluster, its first row and its elements' §5 counters, and Matches builds
// the intervals from those on each call. They must equal what a fresh
// executor's FindAll finds cluster by cluster over the run's partition —
// a reference that never reads a record — for OPS, naive and OPS+skip,
// each left-maximal and with Overlap, on one lane, two and the elastic
// default, and on two lanes with every cluster slowed so that the helper
// searches chunks even on one core. The table has clusters that match
// nothing; the matrix runs over the partition as built and again after an
// insert refreshed it. A Result holds what its accessors read and no
// more (144 bytes: what the driver found is the run's event's), and the
// executor a pattern keeps holds one cluster's matches at most
// (keptExecutorScratch).
func TestResultMatchesFromBounds(t *testing.T) {
	t.Run("kept executor scratch", keptExecutorScratch)
	defer fault.Reset()
	if size := unsafe.Sizeof(Result{}); unsafe.Sizeof(uintptr(0)) == 8 && size > 144 {
		t.Errorf("a Result is %d bytes, want at most the 144 it is", size)
	}
	db, q := driverDB(t, 64, driverRows)
	for c := 0; c < 4; c++ {
		insertSeries(t, db, fmt.Sprintf("flat%d", c), 0, 50, 50, 50, 50, 50, 50) // matches nothing
	}
	check := func(phase string) {
		t.Helper()
		helped := 0
		for _, kind := range []ExecutorKind{OPSExec, NaiveExec} {
			for _, overlap := range []bool{false, true} {
				for _, cfg := range []struct {
					workers int
					slow    bool
				}{{1, false}, {2, false}, {0, false}, {2, true}} {
					label := fmt.Sprintf("%s %s overlap=%v workers=%d slowed=%v", phase, kind, overlap, cfg.workers, cfg.slow)
					if cfg.slow {
						if err := fault.Arm("sqlts.execute.cluster", fault.Action{Delay: 50 * time.Microsecond}); err != nil {
							t.Fatal(err)
						}
					}
					got, ev, err := q.runMeasured(RunOptions{Executor: kind, Overlap: overlap, MaxWorkers: cfg.workers})
					fault.Reset()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if cfg.slow && ev.Workers == 2 {
						helped++
					}
					part, _, err := db.partition(q.plan, false)
					if err != nil {
						t.Fatal(err)
					}
					ex := q.plan.art.newExecutor(executorKey{kind, overlap})
					var want []ClusterMatches
					empty := 0
					for i, seq := range part.Groups.Slice() {
						if ms, _ := ex.FindAll(seq); len(ms) > 0 {
							want = append(want, ClusterMatches{Cluster: i, Matches: ms})
						} else {
							empty++
						}
					}
					if len(want) == 0 || empty == 0 {
						t.Fatalf("%s: %d clusters match and %d do not; the test wants both", label, len(want), empty)
					}
					if ms := got.Matches(); !reflect.DeepEqual(ms, want) {
						t.Fatalf("%s: Matches() gives %d matched clusters, FindAll %d, or their intervals differ", label, len(ms), len(want))
					}
					if len(got.Rows) != got.Stats.Matches {
						t.Fatalf("%s: %d rows for %d matches", label, len(got.Rows), got.Stats.Matches)
					}
				}
			}
		}
		if helped == 0 {
			t.Errorf("%s: no slowed two-lane run had its helper search a chunk", phase)
		}
	}
	check("built")
	insertSeries(t, db, "s00", 1000, 100, 99, 98, 97, 99, 100) // one more dip in the first cluster
	insertSeries(t, db, "znew", 0, 10, 11, 10.5, 10, 9, 11)    // a new cluster
	if res, err := q.Run(); err != nil || !strings.HasPrefix(res.PartitionOutcome(), "refreshed") {
		t.Fatalf("after the inserts the partition is %q (%v), want refreshed", res.PartitionOutcome(), err)
	}
	check("refreshed")
}

// keptExecutorScratch: the match and span blocks of the executor a
// pattern keeps are scratch that its run loops rewind after
// every cluster, so what the executor holds after a run is bounded by one
// cluster's matches, not by the result. Overlap runs over 800 clusters of
// 129 rising prices return 102,400 two-element matches, 128 a cluster,
// on the pure-mask loop (OPS) and on the generic run loop (naive): the
// kept executor holds room for at most 128 matches and 256 spans, where
// it once held the whole result's.
func keptExecutorScratch(t *testing.T) {
	const clusters, rows = 800, 129
	tbl := storage.NewTable("rise", storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	))
	staged := make([]storage.Row, 0, clusters*rows)
	for c := 0; c < clusters; c++ {
		name := storage.NewString(fmt.Sprintf("c%03d", c))
		for i := 0; i < rows; i++ {
			staged = append(staged, storage.Row{name, storage.NewDateDays(int64(i)), storage.NewFloat(float64(100 + i))})
		}
	}
	if err := tbl.InsertBatch(staged); err != nil {
		t.Fatal(err)
	}
	db := New()
	db.RegisterTable(tbl)
	q, err := db.Prepare(`SELECT Y.price FROM rise CLUSTER BY name SEQUENCE BY date AS (X, Y) WHERE Y.price > Y.previous.price`)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ExecutorKind{OPSExec, NaiveExec} {
		res, err := q.RunWith(RunOptions{Executor: kind, Overlap: true, MaxWorkers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Matches != clusters*(rows-1) {
			t.Fatalf("%s: %d matches, want %d", kind, res.Stats.Matches, clusters*(rows-1))
		}
		kept := keptRuns(q)
		if len(kept) != 1 || len(kept[0].lanes) != 1 || kept[0].lanes[0].key != (executorKey{kind, true}) {
			t.Fatalf("%s: the pattern keeps no one-lane run for the run's executor", kind)
		}
		ev := reflect.ValueOf(kept[0].lanes[0].ex).Elem()
		matches, spans := ev.FieldByName("matches").FieldByName("buf").Cap(), ev.FieldByName("spans").FieldByName("buf").Cap()
		if matches > rows-1 || spans > 2*(rows-1) {
			t.Errorf("%s: the kept executor holds room for %d matches and %d spans, want at most one cluster's %d and %d",
				kind, matches, spans, rows-1, 2*(rows-1))
		}
	}
}
