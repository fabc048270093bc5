package sqlts

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/testutil"
)

// captureSink retains every event handed to it, in order.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *captureSink) Emit(ev obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, ev)
}

// TestObservationViewsAgree: every view of what the database executed is
// derived from the executions' events, so over a mix of successes, typed
// failures, queued and slow runs the metrics registry, the statement
// stats, the event ring, the slow log and the slow hook must each equal
// what the sink-captured event stream sums to, field by field.
func TestObservationViewsAgree(t *testing.T) {
	defer fault.Reset()
	defer testutil.LeakCheck(t)()
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	insertSeries(t, db, "IBM", 10000, 10, 12, 9, 7, 14, 16, 12)
	sink := &captureSink{}
	db.SetEventSink(sink)

	run := func(sql string, opts RunOptions, wantKind string) {
		t.Helper()
		q, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, err = q.RunWith(opts)
		if got := errKind(err); got != wantKind {
			t.Fatalf("%s with %+v: error class %q (%v), want %q", sql, opts, got, err, wantKind)
		}
	}

	// Successes: both statements under every run mode, cold and warm, with
	// an insert in between (a refreshed partition).
	for _, sql := range []string{introspectSQL1, introspectSQL2} {
		for _, opts := range []RunOptions{{}, {MaxWorkers: 4}, {Executor: NaiveExec}, {NoCache: true}} {
			run(sql, opts, "")
		}
	}
	insertSeries(t, db, "INTC", 10007, 71)
	run(introspectSQL1, RunOptions{}, "")
	run("EXPLAIN ANALYZE "+introspectSQL2, RunOptions{}, "") // the naive re-run is no execution

	// Typed failures: a budget, a contained panic, a deadline.
	run(introspectSQL2, RunOptions{MaxMatches: 1}, "budget")
	if err := fault.Arm("sqlts.execute.cluster", fault.Action{Panic: "views panic", Times: 1}); err != nil {
		t.Fatal(err)
	}
	run(introspectSQL1, RunOptions{}, "panic")
	fault.Reset()
	run(introspectSQL1, RunOptions{Deadline: time.Nanosecond}, "deadline")

	// A one-slot gate held by a parked run: one run is rejected after
	// waiting out the timeout, the next queues until the slot frees.
	db.SetMaxConcurrentQueries(1)
	db.SetAdmissionTimeout(20 * time.Millisecond)
	entered, release := parkFirstExecution(t)
	defer release()
	parked := make(chan error, 1)
	go func() {
		_, err := db.Query(introspectSQL2)
		parked <- err
	}()
	<-entered
	run(introspectSQL1, RunOptions{}, "rejected")
	db.SetAdmissionTimeout(0)
	queued := make(chan error, 1)
	go func() {
		_, err := db.Query(introspectSQL1)
		queued <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); db.metrics.admissionWaiting.Value() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("second query never queued for admission")
		}
		time.Sleep(time.Millisecond)
	}
	release()
	if err := <-parked; err != nil {
		t.Fatalf("parked query: %v", err)
	}
	if err := <-queued; err != nil {
		t.Fatalf("queued query: %v", err)
	}
	fault.Reset()
	db.SetMaxConcurrentQueries(0)

	// Slow runs: everything is over a 1ns threshold, failures included.
	var hooked []obs.Event
	db.SetSlowQueryThreshold(time.Nanosecond, func(ev obs.Event) { hooked = append(hooked, ev) })
	run(introspectSQL1, RunOptions{}, "")
	run(introspectSQL2, RunOptions{Executor: NaiveExec}, "")
	run(introspectSQL2, RunOptions{MaxMatches: 1}, "budget")
	db.SetSlowQueryThreshold(0, nil)
	run(introspectSQL1, RunOptions{}, "")

	events := sink.events
	if len(events) != 20 {
		t.Fatalf("captured %d events, want 20", len(events))
	}

	// What the captured events sum to.
	type sums struct {
		ok, failed, slow, vectorized                    int64
		rows, scanned, clusters                         int64
		borrowed, denied, yielded                       int64
		predEvals, rollbacks, matches                   int64
		durNs                                           int64
		canceled, deadline, budget, panics, rej, killed int64
		partitionSeen, queuedOK, rejectedWaited         bool
	}
	var want sums
	stmts := map[string]*obs.StmtSnapshot{}
	var slowEvents, hookEvents []obs.Event
	for _, ev := range events {
		s := stmts[ev.SQL]
		if s == nil {
			s = &obs.StmtSnapshot{SQL: ev.SQL}
			stmts[ev.SQL] = s
		}
		s.AdmissionWaitNs += ev.AdmissionWaitNs
		if ev.Slow {
			want.slow++
			hookEvents = append(hookEvents, ev)
		}
		if ev.Slow || ev.ErrorKind == "panic" {
			slowEvents = append(slowEvents, ev)
		}
		if ev.Error != "" {
			want.failed++
			s.Errors++
			if ev.Partition != "" || ev.Rows+ev.RowsScanned+ev.PredEvals+ev.Matches != 0 {
				t.Errorf("failed event carries a result: %+v", ev)
			}
			switch ev.ErrorKind {
			case "canceled":
				want.canceled++
				s.Canceled++
			case "deadline":
				want.deadline++
				s.DeadlineExceeded++
			case "budget":
				want.budget++
				s.BudgetExceeded++
			case "panic":
				want.panics++
				s.Panics++
			case "rejected":
				want.rej++
				s.AdmissionRejected++
				// One definition of duration — time after admission — on
				// failures too: the 20ms queue wait is not in it.
				want.rejectedWaited = ev.AdmissionWaitNs >= (20*time.Millisecond).Nanoseconds() && ev.DurationNs < ev.AdmissionWaitNs
			case "killed":
				want.killed++
				s.Killed++
			default:
				t.Errorf("unexpected error class in %+v", ev)
			}
			continue
		}
		want.ok++
		want.rows += ev.Rows
		want.scanned += ev.RowsScanned
		// The event's cluster count is the Result's own count, not the length
		// of a per-cluster table built to be counted: both symbols, every run.
		if ev.Clusters != 2 {
			t.Errorf("event counts %d clusters over a two-symbol table: %+v", ev.Clusters, ev)
		}
		want.clusters += ev.Clusters
		// Every successful batch run says how many lanes searched, and a
		// helper is a lane beside the caller's.
		if ev.Workers < 1 || ev.Workers > 1+ev.HelpersBorrowed {
			t.Errorf("event reports %d workers with %d helpers borrowed: %+v", ev.Workers, ev.HelpersBorrowed, ev)
		}
		want.borrowed += int64(ev.HelpersBorrowed)
		want.denied += int64(ev.HelpersDenied)
		want.yielded += int64(ev.HelpersYielded)
		want.predEvals += ev.PredEvals
		want.rollbacks += ev.Rollbacks
		want.matches += ev.Matches
		want.durNs += ev.DurationNs
		s.Calls++
		s.Rows += ev.Rows
		s.RowsScanned += ev.RowsScanned
		s.PredEvals += ev.PredEvals
		s.Rollbacks += ev.Rollbacks
		s.Matches += ev.Matches
		s.TotalNs += ev.DurationNs
		s.MaxNs = max(s.MaxNs, ev.DurationNs)
		if ev.PlanCached {
			s.PlanCacheHits++
		}
		if ev.PartitionCached {
			s.PartitionCacheHits++
		}
		if ev.Kernel {
			s.KernelRuns++
		} else {
			s.InterpreterRuns++
		}
		if ev.Executor == "naive" {
			s.NaiveCalls++
			s.NaivePredEvals += ev.PredEvals
		}
		if ev.Vectorized {
			want.vectorized++
			s.VectorizedRuns++
		}
		if ev.Partition == "" || ev.PartitionCached != (ev.Partition == "cached") {
			t.Errorf("successful event's partition outcome %q (cached=%v): %+v", ev.Partition, ev.PartitionCached, ev)
		}
		want.partitionSeen = want.partitionSeen || strings.HasPrefix(ev.Partition, "refreshed (1 of 2")
		want.queuedOK = want.queuedOK || ev.AdmissionWaitNs > 0
	}
	if want.borrowed == 0 {
		t.Error("mix lacks a run that fanned out")
	}
	if !want.partitionSeen || !want.queuedOK || !want.rejectedWaited {
		t.Errorf("mix lacks a refreshed partition (%v), a queued success (%v) or a rejection whose duration excludes its wait (%v)",
			want.partitionSeen, want.queuedOK, want.rejectedWaited)
	}

	// The metrics registry.
	m := db.metrics
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"sqlts_queries_total", m.queries.Value(), want.ok},
		{"sqlts_query_errors_total", m.queryErrors.Value(), want.failed},
		{"sqlts_rows_scanned_total", m.rowsScanned.Value(), want.scanned},
		{"sqlts_rows_returned_total", m.rowsReturned.Value(), want.rows},
		{"sqlts_pred_evals_total", m.predEvals.Value(), want.predEvals},
		{"sqlts_rollbacks_total", m.rollbacks.Value(), want.rollbacks},
		{"sqlts_matches_total", m.matches.Value(), want.matches},
		{"sqlts_clusters_scanned_total", m.clustersScanned.Value(), want.clusters},
		{"sqlts_slow_queries_total", m.slowQueries.Value(), want.slow},
		{"sqlts_vectorized_runs_total", m.vectorizedRuns.Value(), want.vectorized},
		{`sqlts_driver_helpers_total{outcome="borrowed"}`, m.driverHelpers.With("borrowed").Value(), want.borrowed},
		{`sqlts_driver_helpers_total{outcome="denied"}`, m.driverHelpers.With("denied").Value(), want.denied},
		{`sqlts_driver_helpers_total{outcome="yielded"}`, m.driverHelpers.With("yielded").Value(), want.yielded},
		{"sqlts_queries_canceled_total", m.queriesCanceled.Value(), want.canceled},
		{"sqlts_query_deadline_exceeded_total", m.queriesDeadline.Value(), want.deadline},
		{"sqlts_query_budget_exceeded_total", m.queriesBudget.Value(), want.budget},
		{"sqlts_query_panics_total", m.queryPanics.Value(), want.panics},
		{"sqlts_admission_rejected_total", m.admissionRejected.Value(), want.rej},
		{"sqlts_queries_killed_total", m.queriesKilled.Value(), want.killed},
		{"sqlts_events_emitted_total", m.eventsEmitted.Value(), int64(len(events))},
		{"sqlts_query_duration_seconds count", int64(m.queryDuration.Count()), want.ok},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the events sum to %d", c.name, c.got, c.want)
		}
	}
	if got, want := m.queryDuration.Sum(), float64(want.durNs)/1e9; math.Abs(got-want) > 1e-9 {
		t.Errorf("sqlts_query_duration_seconds sum = %v, the events sum to %v", got, want)
	}
	if want.budget != 2 || want.panics != 1 || want.deadline != 1 || want.rej != 1 || want.slow != 3 {
		t.Errorf("mix is not what the test drove: %+v", want)
	}

	// The statement stats, entry by entry, less the derived fields.
	got := db.StatementStats()
	if len(got) != len(stmts) {
		t.Errorf("%d statement entries, the events name %d", len(got), len(stmts))
	}
	for _, g := range got {
		w := stmts[g.SQL]
		if w == nil {
			t.Errorf("statement entry %q has no event", g.SQL)
			continue
		}
		g.MeanNs, g.P50Ns, g.P95Ns, g.P99Ns, g.OPSSavingsPct = 0, 0, 0, 0, 0
		if g != *w {
			t.Errorf("statement %q:\n stats  %+v\n events %+v", g.SQL, g, *w)
		}
	}

	// The ring, the slow log and the hook hold the events themselves.
	ring := db.RecentEvents()
	if len(ring) != len(events) {
		t.Fatalf("ring holds %d events, the sink saw %d", len(ring), len(events))
	}
	for i, ev := range ring {
		if w := events[len(events)-1-i]; ev != w {
			t.Errorf("ring[%d] = %+v, the sink saw %+v", i, ev, w)
		}
	}
	recs := db.SlowLog()
	if len(recs) != len(slowEvents) || len(recs) != 4 {
		t.Fatalf("slow log holds %d records, the events name %d (want 4: three slow runs and the panic)", len(recs), len(slowEvents))
	}
	for i, rec := range recs {
		if w := slowEvents[len(slowEvents)-1-i]; rec.Event != w || rec.ID != uint64(len(recs)-i) || rec.Report == "" {
			t.Errorf("slow log[%d] = id %d %+v (report %d bytes), the sink saw %+v", i, rec.ID, rec.Event, len(rec.Report), w)
		}
	}
	if len(hooked) != len(hookEvents) {
		t.Fatalf("hook saw %d events, %d were slow", len(hooked), len(hookEvents))
	}
	for i, ev := range hooked {
		if ev != hookEvents[i] {
			t.Errorf("hook[%d] = %+v, the sink saw %+v", i, ev, hookEvents[i])
		}
	}
}

// errKind is the event's error class for err ("" for nil).
func errKind(err error) string {
	if err == nil {
		return ""
	}
	return classifyError(err).String()
}

// TestPreparedQueryHoldsNoRunState: a handle prepared once and run 10,000
// times costs the same at run 10 and at run 10,000 and leaves nothing
// behind: the plan's trace is as long as it was, and a cache-hit Prepare
// allocates the handle alone: nothing for tracing, and no key, since the
// statement's own text finds its plan.
func TestPreparedQueryHoldsNoRunState(t *testing.T) {
	db := quoteDB(t)
	insertSeries(t, db, "INTC", 10000, 60, 70, 55, 40, 80, 92, 70)
	q, err := db.Prepare(introspectSQL1)
	if err != nil {
		t.Fatal(err)
	}
	spans := len(q.Trace().Spans())
	run := func() {
		if _, err := q.Run(); err != nil {
			t.Fatal(err)
		}
	}
	early := testing.AllocsPerRun(10, run)
	for i := 0; i < 10000; i++ {
		run()
	}
	late := testing.AllocsPerRun(10, run)
	if early != late {
		t.Errorf("a run allocates %v after 10 runs and %v after 10,000", early, late)
	}
	if n := len(q.Trace().Spans()); n != spans {
		t.Errorf("the trace grew from %d to %d spans over the runs", spans, n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if hit, err := db.Prepare(introspectSQL1); err != nil || !hit.PlanCached() {
			t.Fatal(hit, err)
		}
	}); allocs > 1 {
		t.Errorf("a cache-hit Prepare allocates %v objects, want at most 1 (the Query)", allocs)
	}
}

// TestExplainAnalyzeReportsItsOwnRun: EXPLAIN ANALYZE on a Query that
// other goroutines are running with another executor reports the run it
// made — its executor and its counters — not the latest run on the handle.
func TestExplainAnalyzeReportsItsOwnRun(t *testing.T) {
	defer testutil.LeakCheck(t)()
	_, q := chaosDB(t)
	ops, err := q.Run()
	if err != nil {
		t.Fatal(err)
	}
	naive, err := q.RunWith(RunOptions{Executor: NaiveExec})
	if err != nil {
		t.Fatal(err)
	}
	if ops.Stats == naive.Stats {
		t.Fatal("the statement does not tell the executors apart")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := q.RunWith(RunOptions{Executor: NaiveExec}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	line := "executor=ops clusters=6 rows-scanned=9000 rows=" + strconv.Itoa(len(ops.Rows)) +
		" plan=built partition=cached workers=1 (0 borrowed, 0 yielded) stats=" + ops.Stats.String()
	for i := 0; i < 25; i++ {
		text, err := q.ExplainAnalyze(RunOptions{})
		if err != nil {
			t.Error(err)
			break
		}
		if !strings.Contains(text, line) || !strings.Contains(text, "Executor ops: "+ops.Stats.String()) ||
			!strings.Contains(text, "Naive comparison: "+naive.Stats.String()) {
			t.Errorf("EXPLAIN ANALYZE of an ops run (want execute line %q):\n%s", line, text[strings.Index(text, "Phases:"):])
			break
		}
	}
	close(stop)
	wg.Wait()
}
