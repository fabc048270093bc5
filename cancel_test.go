package sqlts

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// cancelDB builds a multi-cluster workload big enough that a pattern
// query crosses many cooperative checkpoints (the engine checks every
// 1024 predicate evaluations).
func cancelDB(t testing.TB, clusters, rows int) (*DB, *Query) {
	t.Helper()
	db := quoteDB(t)
	for s := 0; s < clusters; s++ {
		name := fmt.Sprintf("C%02d", s)
		prices := workload.GeometricWalk(workload.WalkConfig{
			Seed: int64(s + 1), N: rows, Start: 50 + float64(s), Drift: 0, Vol: 0.02,
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
	return db, q
}

// resultsEqual compares two results row by row and on the paper's
// pred-eval metric — the bit-identical check the differential
// cancellation test relies on.
func resultsEqual(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if len(ref.Rows) != len(got.Rows) {
		t.Fatalf("%s: %d rows, reference %d", label, len(got.Rows), len(ref.Rows))
	}
	for i := range ref.Rows {
		for c := range ref.Rows[i] {
			if !valuesEqual(ref.Rows[i][c], got.Rows[i][c]) {
				t.Fatalf("%s: row %d col %d: %v, reference %v", label, i, c, got.Rows[i][c], ref.Rows[i][c])
			}
		}
	}
	if ref.Stats.PredEvals != got.Stats.PredEvals {
		t.Fatalf("%s: %d pred-evals, reference %d", label, got.Stats.PredEvals, ref.Stats.PredEvals)
	}
}

// TestCancelDifferential cancels a run at every k-th engine checkpoint
// (via a fault-injected context cancel), asserting the canceled run
// returns the typed error and no partial result — and that an
// uncanceled re-run of the same prepared query is bit-identical
// (rows and pred-evals) to the untouched reference. Serial and
// parallel paths are both walked.
func TestCancelDifferential(t *testing.T) {
	defer fault.Reset()
	// Checkpoint cadence is per cluster search (the counter resets with
	// each FindAll), so clusters must individually exceed 1024 pred-evals.
	_, q := cancelDB(t, 6, 2500)

	ref, err := q.RunWith(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Rows) == 0 {
		t.Fatal("workload produced no matches; adjust parameters")
	}

	// Count the checkpoints one full run crosses: an armed no-op action
	// fires at every checkpoint without failing anything.
	if err := fault.Arm("engine.eval", fault.Action{}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunWith(RunOptions{}); err != nil {
		t.Fatal(err)
	}
	checkpoints := fault.Lookup("engine.eval").Fired()
	fault.Reset()
	if checkpoints < 3 {
		t.Fatalf("workload crosses only %d checkpoints; grow it", checkpoints)
	}

	grid := []int64{1, 2, 3, checkpoints / 2, checkpoints - 1}
	for _, parallel := range []bool{false, true} {
		for _, k := range grid {
			if k < 1 || k > checkpoints {
				continue
			}
			name := fmt.Sprintf("parallel=%v/checkpoint=%d", parallel, k)
			workers := 1
			if parallel {
				workers = 4
			}
			t.Run(name, func(t *testing.T) {
				defer fault.Reset()
				defer testutil.LeakCheck(t)()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				// Cancel the context at exactly the k-th checkpoint: the
				// same checkpoint then observes the cancellation and the
				// run unwinds with the typed error.
				if err := fault.Arm("engine.eval", fault.Action{
					After: k - 1, Times: 1,
					Fn: func() error { cancel(); return nil },
				}); err != nil {
					t.Fatal(err)
				}
				res, err := q.RunWith(RunOptions{Context: ctx, MaxWorkers: workers})
				if res != nil {
					t.Fatalf("canceled run returned a partial result (%d rows)", len(res.Rows))
				}
				if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
					t.Fatalf("canceled run error = %v; want ErrCanceled wrapping context.Canceled", err)
				}
				fault.Reset()
				// The cancellation must leave no residue: the same
				// prepared query re-runs bit-identically.
				rerun, err := q.RunWith(RunOptions{MaxWorkers: workers})
				if err != nil {
					t.Fatalf("re-run after cancel: %v", err)
				}
				resultsEqual(t, "re-run", ref, rerun)
			})
		}
	}
}

// TestCancelBeforeRun: an already-canceled context fails at the entry
// checkpoint — deterministically, before any search work.
func TestCancelBeforeRun(t *testing.T) {
	defer fault.Reset()
	_, q := cancelDB(t, 2, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := q.RunContext(ctx)
	if res != nil || !errors.Is(err, ErrCanceled) {
		t.Fatalf("res=%v err=%v; want nil, ErrCanceled", res, err)
	}
	// No search work happened: the engine checkpoint never fired.
	if err := fault.Arm("engine.eval", fault.Action{}); err != nil {
		t.Fatal(err)
	}
	if _, err := q.RunContext(ctx); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err=%v; want ErrCanceled", err)
	}
	if n := fault.Lookup("engine.eval").Fired(); n != 0 {
		t.Fatalf("pre-canceled run crossed %d checkpoints; want 0", n)
	}
}

// TestDeadline: RunOptions.Deadline stops a run slowed down by an
// injected per-checkpoint delay, with the typed deadline error.
func TestDeadline(t *testing.T) {
	defer fault.Reset()
	_, q := cancelDB(t, 4, 2500)
	if err := fault.Arm("engine.eval", fault.Action{Delay: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(RunOptions{Deadline: 10 * time.Millisecond})
	if res != nil {
		t.Fatalf("deadline run returned a partial result")
	}
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v; want ErrDeadlineExceeded wrapping context.DeadlineExceeded", err)
	}
	fault.Reset()
	// The deadline context is per-run: the next run is unconstrained.
	if _, err := q.Run(); err != nil {
		t.Fatalf("run after deadline: %v", err)
	}
}

// TestMaxMatches: the match budget trips with the typed error once the
// accumulated match count exceeds the bound (checked at cluster
// boundaries — overshoot is at most one cluster, never a partial
// Result).
func TestMaxMatches(t *testing.T) {
	_, q := cancelDB(t, 12, 200)
	ref, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Stats.Matches < 2 {
		t.Fatalf("workload produced %d matches; need >= 2", ref.Stats.Matches)
	}
	for _, workers := range []int{1, 4} {
		res, err := q.RunWith(RunOptions{MaxMatches: 1, MaxWorkers: workers})
		if res != nil {
			t.Fatalf("workers=%d: over-budget run returned a result", workers)
		}
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err=%v; want ErrBudgetExceeded", workers, err)
		}
	}
	// A budget above the total match count never trips.
	res, err := q.RunWith(RunOptions{MaxMatches: int64(ref.Stats.Matches)})
	if err != nil {
		t.Fatalf("budget == total matches must pass: %v", err)
	}
	resultsEqual(t, "at-budget", ref, res)
}

// TestMaxRowsScanned: the scan budget fails fast — before the search —
// when the partitioned input exceeds the bound.
func TestMaxRowsScanned(t *testing.T) {
	defer fault.Reset()
	_, q := cancelDB(t, 4, 100)
	if err := fault.Arm("engine.eval", fault.Action{}); err != nil {
		t.Fatal(err)
	}
	res, err := q.RunWith(RunOptions{MaxRowsScanned: 10})
	if res != nil || !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("res=%v err=%v; want nil, ErrBudgetExceeded", res, err)
	}
	if n := fault.Lookup("engine.eval").Fired(); n != 0 {
		t.Fatalf("over-budget scan crossed %d checkpoints; want fail-fast", n)
	}
	fault.Reset()
	if _, err := q.RunWith(RunOptions{MaxRowsScanned: 400}); err != nil {
		t.Fatalf("at-budget scan: %v", err)
	}
}

// TestStreamCancel: a canceled stream context surfaces the typed error
// from Push; the cancellation is permanent for that stream's context
// but does not poison the matcher state.
func TestStreamCancel(t *testing.T) {
	defer testutil.LeakCheck(t)()
	db := quoteDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := db.Stream(`
		SELECT X.name FROM quote
		  CLUSTER BY name SEQUENCE BY date
		  AS (X, Y)
		WHERE Y.price > 1.1 * X.price`,
		StreamOptions{Context: ctx},
		func(storage.Row) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Push(storage.NewString("A"), storage.NewDateDays(1), storage.NewFloat(10)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := st.Push(storage.NewString("A"), storage.NewDateDays(2), storage.NewFloat(12)); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Push after cancel: %v; want ErrCanceled", err)
	}
	if err := st.Close(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Close after cancel: %v; want ErrCanceled", err)
	}
}

// TestPureLoopCancel: the pure-mask star loop consumes a star's whole run
// of hits in one word scan, and a run of failed starts in one pair scan,
// yet stays interruptible inside both. One query is one cluster of one X
// row and a 1,000,000-row all-hits *Y run — a single bulk step worth ~976
// checkpoints; the other ("pair …") is 5,000 rows where X holds and *Y
// fails on the next row, then one Y row — 9,998 evals in one pair scan.
// Warm runs repeat until a cancel (or an operator kill) issued from
// another goroutine lands: every run before it returns the full result,
// the one it lands on returns the typed error and no result.
func TestPureLoopCancel(t *testing.T) {
	defer testutil.LeakCheck(t)()
	for _, fx := range []struct {
		prefix string
		rows   int
		price  func(i int) float64
		evals  int64
	}{
		{"", 1_000_001, func(i int) float64 { return float64(min(i, 1) + 1) }, 1_000_001},
		{"pair ", 5_001, func(i int) float64 { return float64(i/5000 + 1) }, 10_000},
	} {
		db := quoteDB(t)
		tbl := db.Table("quote")
		for i := 0; i < fx.rows; i++ {
			tbl.MustInsert(storage.NewString("S"), storage.NewDateDays(int64(10000+i)), storage.NewFloat(fx.price(i)))
		}
		q, err := db.Prepare(`
			SELECT X.name, COUNT(Y) AS days
			FROM quote
			  CLUSTER BY name
			  SEQUENCE BY date
			  AS (X, *Y)
			WHERE X.price = 1 AND Y.price = 2`)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := q.RunWith(RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Rows) != 1 || ref.Stats.PredEvals != fx.evals {
			t.Fatalf("%sreference: %d rows, %d pred-evals; want 1 row, %d pred-evals", fx.prefix, len(ref.Rows), ref.Stats.PredEvals, fx.evals)
		}

		// runUntil repeats the warm query until it fails, with stopper
		// running beside it from the first run until that failure.
		runUntil := func(t *testing.T, opts RunOptions, stopper func(failed <-chan struct{})) error {
			t.Helper()
			failed := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				stopper(failed)
			}()
			defer wg.Wait()
			defer close(failed)
			for n := 0; n < 1_000_000; n++ {
				res, err := q.RunWith(opts)
				if err != nil {
					if res != nil {
						t.Fatalf("failed run returned a partial result (%d rows)", len(res.Rows))
					}
					return err
				}
				resultsEqual(t, fmt.Sprintf("run %d", n), ref, res)
			}
			t.Fatal("the stop never landed")
			return nil
		}

		t.Run(fx.prefix+"cancel", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			err := runUntil(t, RunOptions{Context: ctx}, func(<-chan struct{}) { cancel() })
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) || errors.Is(err, ErrKilled) {
				t.Fatalf("canceled run error = %v; want ErrCanceled wrapping context.Canceled", err)
			}
		})
		t.Run(fx.prefix+"kill", func(t *testing.T) {
			err := runUntil(t, RunOptions{}, func(failed <-chan struct{}) {
				for {
					select {
					case <-failed:
						return
					default:
					}
					for _, s := range db.ActiveQueries() {
						_ = db.KillQuery(s.ID, "pure-loop kill") // ErrNoSuchQuery: it just finished
					}
				}
			})
			if !errors.Is(err, ErrKilled) || !errors.Is(err, ErrCanceled) {
				t.Fatalf("killed run error = %v; want ErrKilled", err)
			}
		})
		if rerun, err := q.RunWith(RunOptions{}); err != nil {
			t.Fatalf("%sre-run after cancel and kill: %v", fx.prefix, err)
		} else {
			resultsEqual(t, fx.prefix+"re-run", ref, rerun)
		}
	}
}
