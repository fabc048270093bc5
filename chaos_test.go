package sqlts

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
	"sqlts/internal/workload"
)

// errChaos is the marker injected in error mode; clients assert every
// non-typed failure wraps it (no mystery errors under chaos).
var errChaos = errors.New("chaos injected error")

// chaosSites is the fault-point catalog this suite certifies. The test
// fails if the registry grows a site nobody chaos-tests.
var chaosSites = []string{
	"engine.eval",
	"engine.ops.shift",
	"engine.stream.push",
	"sqlts.admission",
	"sqlts.driver.yield",
	"sqlts.execute.cluster",
}

func chaosDB(t testing.TB) (*DB, *Query) {
	t.Helper()
	db := quoteDB(t)
	for s := 0; s < 6; s++ {
		prices := workload.GeometricWalk(workload.WalkConfig{
			Seed: int64(s + 7), N: 1500, Start: 40 + float64(s), Drift: 0, Vol: 0.025,
		})
		insertSeries(t, db, fmt.Sprintf("H%02d", s), 10000, prices...)
	}
	q, err := db.Prepare(`
		SELECT X.name, COUNT(Y) AS days
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

// TestChaosCatalogComplete pins the registered fault points to the
// catalog above: a new Fire site must be added here (and thereby get
// chaos coverage) before it ships.
func TestChaosCatalogComplete(t *testing.T) {
	got := fault.Names()
	want := map[string]bool{}
	for _, s := range chaosSites {
		want[s] = true
	}
	for _, name := range got {
		if !want[name] {
			t.Errorf("fault point %q is not in the chaos catalog — add it to chaosSites", name)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("chaos catalog lists %q but no such point is registered", name)
	}
}

// TestChaos injects a delay, an error, and a panic at every registered
// fault point while 8 concurrent clients hammer the query path, then
// checks: the process survives, every failure carries a typed (or the
// injected) error, no partial results leak, no goroutines leak, and the
// per-statement error accounting in /debug/statements matches exactly
// what the clients observed.
func TestChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos suite is not -short")
	}
	defer fault.Reset()
	modes := []struct {
		name string
		act  fault.Action
	}{
		// The delay is bounded (Times) so sites on per-rollback hot paths
		// don't slow runs past the admission timeout — delay mode asserts
		// zero failures.
		{"delay", fault.Action{Delay: 200 * time.Microsecond, Times: 100}},
		{"error", fault.Action{Err: errChaos}},
		{"panic", fault.Action{Panic: "chaos injected panic"}},
	}
	for _, site := range chaosSites {
		if site == "engine.stream.push" {
			continue // exercised by TestChaosStream below
		}
		if site == "sqlts.driver.yield" {
			continue // only borrowed helpers reach it: TestChaosDriverYield below
		}
		for _, mode := range modes {
			t.Run(site+"/"+mode.name, func(t *testing.T) {
				defer fault.Reset()
				defer testutil.LeakCheck(t)()
				db, q := chaosDB(t)
				db.SetMaxConcurrentQueries(4)
				db.SetAdmissionTimeout(2 * time.Second)
				if err := fault.Arm(site, mode.act); err != nil {
					t.Fatal(err)
				}

				const clients, iters = 8, 3
				classCounts := make([]map[obs.ErrClass]int64, clients)
				var okRuns [clients]int64
				var wg sync.WaitGroup
				for c := 0; c < clients; c++ {
					classCounts[c] = map[obs.ErrClass]int64{}
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							res, err := q.RunWith(RunOptions{
								Context:    context.Background(),
								MaxWorkers: 1 + 3*(c%2), // odd clients fan out
							})
							if err == nil {
								okRuns[c]++
								if res == nil {
									t.Error("nil result without error")
								}
								continue
							}
							if res != nil {
								t.Errorf("partial result alongside error %v", err)
							}
							// Every chaos failure must be classifiable:
							// either one of the typed sentinels / a
							// contained panic, or it wraps the injected
							// marker verbatim.
							var pe *PanicError
							typed := errors.As(err, &pe) ||
								errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded) ||
								errors.Is(err, ErrBudgetExceeded) || errors.Is(err, ErrAdmissionRejected)
							if !typed && !errors.Is(err, errChaos) {
								t.Errorf("untyped chaos error: %v", err)
							}
							if pe != nil {
								if pe.Statement == "" || len(pe.Stack) == 0 {
									t.Errorf("PanicError missing statement/stack: %+v", pe)
								}
							}
							classCounts[c][classifyError(err)]++
						}
					}(c)
				}
				wg.Wait()

				// Exact accounting: the statement store's per-class error
				// counters must equal what the clients saw.
				want := map[obs.ErrClass]int64{}
				var wantErrs int64
				for c := 0; c < clients; c++ {
					for cls, n := range classCounts[c] {
						want[cls] += n
						wantErrs += n
					}
				}
				var gotErrs, gotPanics, gotRejected, gotCanceled, gotDeadline, gotBudget int64
				for _, s := range db.StatementStats() {
					gotErrs += s.Errors
					gotPanics += s.Panics
					gotRejected += s.AdmissionRejected
					gotCanceled += s.Canceled
					gotDeadline += s.DeadlineExceeded
					gotBudget += s.BudgetExceeded
				}
				if gotErrs != wantErrs {
					t.Errorf("statement errors = %d, clients observed %d", gotErrs, wantErrs)
				}
				for cls, got := range map[obs.ErrClass]int64{
					obs.ErrPanic:    gotPanics,
					obs.ErrRejected: gotRejected,
					obs.ErrCanceled: gotCanceled,
					obs.ErrDeadline: gotDeadline,
					obs.ErrBudget:   gotBudget,
				} {
					if got != want[cls] {
						t.Errorf("class %v: statements=%d clients=%d", cls, got, want[cls])
					}
				}
				// Cross-check the process metrics for the panic mode: every
				// contained panic incremented sqlts_query_panics_total.
				if mode.name == "panic" && db.metrics.queryPanics.Value() != want[obs.ErrPanic] {
					t.Errorf("sqlts_query_panics_total = %d, clients observed %d panics",
						db.metrics.queryPanics.Value(), want[obs.ErrPanic])
				}
				// In delay mode nothing fails; everything else must have
				// injected at least once (the site is actually on the path).
				if mode.name == "delay" && wantErrs != 0 {
					t.Errorf("delay mode produced %d errors; want 0", wantErrs)
				}
				if mode.name != "delay" && wantErrs == 0 {
					t.Errorf("%s mode injected no failures — site off the path?", mode.name)
				}
				// The gate must be fully released: a final query succeeds.
				fault.Reset()
				if _, err := q.Run(); err != nil {
					t.Errorf("query after chaos: %v", err)
				}
				if g := db.metrics.admissionWaiting.Value(); g != 0 {
					t.Errorf("admission_waiting gauge = %d after chaos; want 0", g)
				}
				assertNoSearchers(t)
			})
		}
	}
}

// TestChaosDriverYield drives the sqlts.driver.yield site, which only a
// borrowed helper of an elastic run reaches: eight default-option clients
// over a table tall enough to fan out, on a four-core budget. A delay or
// an injected error there costs nothing — an error is a helper leaving —
// and every run returns the full result; an injected panic is contained as
// a PanicError of the run. Either way no goroutine and no searcher token
// is left behind.
func TestChaosDriverYield(t *testing.T) {
	defer fault.Reset()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, q := driverDB(t, 64, tallRows, 0)
	want, err := q.RunWith(RunOptions{MaxWorkers: 1, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		act  fault.Action
	}{
		{"delay", fault.Action{Delay: 200 * time.Microsecond, Times: 100}},
		{"error", fault.Action{Err: errChaos}},
		{"panic", fault.Action{Panic: "chaos injected panic"}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			defer fault.Reset()
			defer testutil.LeakCheck(t)()
			if err := fault.Arm("sqlts.driver.yield", mode.act); err != nil {
				t.Fatal(err)
			}
			var panics atomic.Int64
			var wg sync.WaitGroup
			for c := 0; c < 8; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						res, err := q.Run()
						var pe *PanicError
						switch {
						case err == nil:
							if !reflect.DeepEqual(want.Rows, res.Rows) || want.Stats != res.Stats {
								t.Errorf("result differs from the one-lane run: %+v, want %+v", res.Stats, want.Stats)
							}
						case mode.name == "panic" && errors.As(err, &pe) && res == nil:
							panics.Add(1)
						default:
							t.Errorf("err = %v (partial result: %v)", err, res != nil)
						}
					}
				}()
			}
			wg.Wait()
			if faultDriverYield.Fired() == 0 {
				t.Error("no helper reached the yield point — site off the path?")
			}
			if mode.name == "panic" && panics.Load() == 0 {
				t.Error("panic mode injected no failures")
			}
			assertNoSearchers(t)
		})
	}
}

// TestChaosStream drives the engine.stream.push and engine.eval sites
// through a continuous query: injected errors surface from Push typed,
// an injected panic poisons the stream permanently with a PanicError,
// and the stream gauges drain on Close.
func TestChaosStream(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db := quoteDB(t)
	open := func(t *testing.T, ctx context.Context) *Stream {
		t.Helper()
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
		return st
	}
	push := func(st *Stream, day int, price float64) error {
		return st.Push(storage.NewString("S"), storage.NewDateDays(int64(day)), storage.NewFloat(price))
	}

	t.Run("push-error", func(t *testing.T) {
		defer fault.Reset()
		st := open(t, context.Background())
		if err := fault.Arm("engine.stream.push", fault.Action{Err: errChaos}); err != nil {
			t.Fatal(err)
		}
		if err := push(st, 1, 10); !errors.Is(err, errChaos) {
			t.Fatalf("Push = %v; want the injected error", err)
		}
		fault.Reset()
		// An injected error does not poison the stream.
		if err := push(st, 2, 10); err != nil {
			t.Fatalf("Push after disarm: %v", err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("push-panic-poisons", func(t *testing.T) {
		defer fault.Reset()
		st := open(t, context.Background())
		if err := push(st, 1, 10); err != nil {
			t.Fatal(err)
		}
		if err := fault.Arm("engine.stream.push", fault.Action{Panic: "chaos stream panic"}); err != nil {
			t.Fatal(err)
		}
		err := push(st, 2, 20)
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("Push = %v; want PanicError", err)
		}
		fault.Reset()
		// Poisoned: the same error comes back forever, including Close.
		if err2 := push(st, 3, 30); !errors.Is(err2, err) {
			t.Fatalf("poisoned Push = %v; want the original PanicError", err2)
		}
		if cerr := st.Close(); !errors.Is(cerr, err) {
			t.Fatalf("poisoned Close = %v; want the original PanicError", cerr)
		}
		if g := db.metrics.streamsOpen.Value(); g != 0 {
			t.Fatalf("streams_open gauge = %d after Close; want 0", g)
		}
	})

	t.Run("concurrent-streams-under-delay", func(t *testing.T) {
		defer fault.Reset()
		if err := fault.Arm("engine.stream.push", fault.Action{Delay: 50 * time.Microsecond}); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				st := open(t, context.Background())
				for i := 0; i < 20; i++ {
					if err := st.Push(
						storage.NewString(fmt.Sprintf("T%d", c)),
						storage.NewDateDays(int64(i)),
						storage.NewFloat(float64(10+i%3)),
					); err != nil {
						t.Errorf("client %d push %d: %v", c, i, err)
						return
					}
				}
				if err := st.Close(); err != nil {
					t.Errorf("client %d close: %v", c, err)
				}
			}(c)
		}
		wg.Wait()
		if g := db.metrics.streamsOpen.Value(); g != 0 {
			t.Fatalf("streams_open gauge = %d; want 0", g)
		}
	})
}

// TestPanicLandsInSlowLog: a contained panic leaves a slow-log record
// whatever the threshold, carrying the run's event (its duration and
// error class) with the panic value and the captured stack as the report
// — the forensic trail ISSUE 7 requires.
func TestPanicLandsInSlowLog(t *testing.T) {
	defer fault.Reset()
	db, q := chaosDB(t)
	if err := fault.Arm("engine.eval", fault.Action{Panic: "forensic panic", Times: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := q.Run()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v; want PanicError", err)
	}
	recs := db.SlowLog()
	if len(recs) != 1 {
		t.Fatalf("%d slow-log records for the contained panic, want 1", len(recs))
	}
	rec := recs[0]
	if rec.DurationNs <= 0 || rec.ErrorKind != "panic" || rec.Error != err.Error() || rec.Slow {
		t.Errorf("panic record's event = %+v", rec.Event)
	}
	if ev := db.RecentEvents()[0]; rec.Event != ev {
		t.Errorf("panic record's event %+v differs from the ring's %+v", rec.Event, ev)
	}
	if js, _ := json.Marshal(rec); !bytes.Contains(js, []byte(`"error_kind":"panic"`)) {
		t.Errorf("panic record JSON lacks the error class: %s", js)
	}
	var buf bytes.Buffer
	if err := db.WriteSlowLog(&buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !bytes.Contains(buf.Bytes(), []byte("forensic panic")) {
		t.Errorf("slow log lacks the panic value:\n%s", out)
	}
	if !bytes.Contains(buf.Bytes(), []byte("goroutine")) {
		t.Errorf("slow log lacks the captured stack:\n%s", out)
	}
}
