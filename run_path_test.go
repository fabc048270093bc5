package sqlts

// The chunk-wide run path: with no fault point armed, a default run of an
// all-pure pattern searches each chunk with the engine's pure run loop,
// which takes no per-cluster checkpoint and books most clusters in closed
// form (engine.ClosedClusters counts them, so each test knows it is on that
// path). Cancellation, kills, the match budget and live progress must keep
// their contracts there: checkpoints at every 1,024 evals of the chunk and
// at every chunk claim, ticks at checkpoints and at chunk end.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// runPathDB serves the double bottom over clusters ten-row walks, one in
// fifty with a planted match, and returns the table's row count.
func runPathDB(t testing.TB, clusters int) (*DB, *Query, int) {
	t.Helper()
	db := New()
	tbl := workload.ClusterWalks("quote", 3, clusters, 10, 50)
	db.RegisterTable(tbl)
	if err := db.DeclarePositive("quote", "price"); err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(strings.Replace(doubleBottomSQL, "FROM djia", "FROM quote CLUSTER BY name", 1))
	if err != nil {
		t.Fatal(err)
	}
	rows, _ := tbl.Snapshot()
	return db, q, len(rows)
}

// onRunPath runs fn and fails unless it booked clusters in closed form.
func onRunPath(t *testing.T, label string, fn func()) {
	t.Helper()
	before := engine.ClosedClusters()
	fn()
	if engine.ClosedClusters() == before {
		t.Fatalf("%s: no cluster was booked in closed form: the run did not take the chunk-wide loop", label)
	}
}

// TestRunPathCancel: warm runs repeat until a context cancel, or a
// KillQuery, issued from another goroutine lands. Every run before it
// returns the full result; the one it lands on returns the typed error
// and no result.
func TestRunPathCancel(t *testing.T) {
	defer testutil.LeakCheck(t)()
	db, q, _ := runPathDB(t, 5000)
	ref, err := q.RunWith(RunOptions{MaxWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("workload produced no matches; adjust parameters")
	}
	for _, workers := range []int{1, 0, 2} {
		opts := RunOptions{MaxWorkers: workers}
		onRunPath(t, "reference", func() {
			if _, err := q.RunWith(opts); err != nil {
				t.Fatal(err)
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		opts.Context = ctx
		err := runUntilStopped(t, q, ref, opts, func(<-chan struct{}) { cancel() })
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || errors.Is(err, ErrKilled) {
			t.Fatalf("workers %d: canceled run error = %v; want ErrCanceled wrapping context.Canceled", workers, err)
		}
		err = runUntilStopped(t, q, ref, RunOptions{MaxWorkers: workers}, killEveryQuery(db))
		if !errors.Is(err, ErrKilled) || !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers %d: killed run error = %v; want ErrKilled", workers, err)
		}
	}
	assertNoSearchers(t)
}

// TestRunPathMaxMatches: the match budget still fails the run with
// ErrBudgetExceeded and no result, on one lane and on two, and a budget of
// every match still passes.
func TestRunPathMaxMatches(t *testing.T) {
	_, q, _ := runPathDB(t, 5000)
	ref, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Matches < 2 {
		t.Fatalf("workload produced %d matches; need >= 2", ref.Stats.Matches)
	}
	for _, workers := range []int{1, 0, 2} {
		res, err := q.RunWith(RunOptions{MaxMatches: 1, MaxWorkers: workers})
		if res != nil || !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers %d: result %v, err %v; want none, ErrBudgetExceeded", workers, res != nil, err)
		}
		// A failed run unwinds before it counts its closed clusters; the
		// budget plays no part in choosing the loop, so the run that passes
		// shows which one both took.
		onRunPath(t, "at budget", func() {
			if res, err = q.RunWith(RunOptions{MaxMatches: int64(ref.Stats.Matches), MaxWorkers: workers}); err != nil {
				t.Fatalf("workers %d: a budget of every match must pass: %v", workers, err)
			}
		})
		resultsEqual(t, "at budget", ref, res)
	}
	assertNoSearchers(t)
}

// TestRunPathProgress polls ActiveQueries while runs go, on one lane and
// elastic: every flight's clusters, rows and matches only grow and never
// pass the run's totals, and once the run is over they are exact.
func TestRunPathProgress(t *testing.T) {
	db, q, rows := runPathDB(t, 20000)
	ref, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 0} {
		stop := make(chan struct{})
		seen := map[uint64]*obs.Flight{}
		snaps := map[uint64][]obs.FlightSnapshot{}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, s := range db.ActiveQueries() {
					if seen[s.ID] == nil {
						seen[s.ID] = db.flight.flights.Get(s.ID)
					}
					if fl := seen[s.ID]; fl != nil {
						snaps[s.ID] = append(snaps[s.ID], fl.Snapshot())
					}
				}
			}
		}()
		onRunPath(t, "polled runs", func() {
			for i := 0; i < 30; i++ {
				if _, err := q.RunWith(RunOptions{MaxWorkers: workers}); err != nil {
					t.Error(err)
				}
			}
		})
		close(stop)
		wg.Wait()

		mid := 0
		for id, ss := range snaps {
			for i, s := range ss {
				if s.ClustersDone > s.ClustersTotal || s.RowsScanned > int64(rows) || s.Matches > int64(ref.Stats.Matches) {
					t.Fatalf("workers %d, query %d: snapshot %d is past the totals: %+v", workers, id, i, s)
				}
				if i > 0 && (s.ClustersDone < ss[i-1].ClustersDone || s.RowsScanned < ss[i-1].RowsScanned || s.Matches < ss[i-1].Matches) {
					t.Fatalf("workers %d, query %d: progress went backwards at snapshot %d", workers, id, i)
				}
				if s.ClustersDone > 0 && s.ClustersDone < s.ClustersTotal {
					mid++
				}
			}
			final := seen[id].Snapshot()
			if final.ClustersDone != final.ClustersTotal || final.RowsScanned != int64(rows) || final.Matches != int64(ref.Stats.Matches) {
				t.Errorf("workers %d, query %d: final progress %d/%d clusters, %d rows, %d matches; want %d rows, %d matches",
					workers, id, final.ClustersDone, final.ClustersTotal, final.RowsScanned, final.Matches, rows, ref.Stats.Matches)
			}
		}
		if len(snaps) == 0 {
			t.Fatalf("workers %d: no run was observed in flight", workers)
		}
		t.Logf("workers %d: %d runs observed, %d snapshots mid-run", workers, len(snaps), mid)
	}
}
