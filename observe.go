package sqlts

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"time"

	"sqlts/internal/obs"
)

// dbMetrics bundles the instruments every DB feeds while serving
// queries and streams. Instruments live in an obs.Registry exposed via
// DB.Metrics / DB.MetricsHandler in the Prometheus text format; the
// runtime gauges are read by the registry's collect hook on every
// exposition.
type dbMetrics struct {
	reg *obs.Registry

	queries         *obs.Counter
	queryErrors     *obs.Counter
	rowsScanned     *obs.Counter
	rowsReturned    *obs.Counter
	predEvals       *obs.Counter
	rollbacks       *obs.Counter
	matches         *obs.Counter
	clustersScanned *obs.Counter
	slowQueries     *obs.Counter
	queryDuration   *obs.Histogram

	queriesCanceled   *obs.Counter
	queriesDeadline   *obs.Counter
	queriesBudget     *obs.Counter
	queryPanics       *obs.Counter
	admissionWaiting  *obs.Gauge
	admissionRejected *obs.Counter
	admissionWait     *obs.Histogram

	streamPushes       *obs.Counter
	streamMatches      *obs.Counter
	streamClusters     *obs.Gauge
	streamsOpen        *obs.Gauge
	streamPushDuration *obs.Histogram
	streamPrunedRows   *obs.Counter

	goroutines   *obs.Gauge
	heapAlloc    *obs.Gauge
	heapObjects  *obs.Gauge
	gcCycles     *obs.Gauge
	gcPauseTotal *obs.Gauge

	kernelCompiled *obs.Counter
	kernelFallback *obs.Counter

	vectorizedRuns *obs.Counter
	driverHelpers  *obs.CounterVec

	planCacheHits               *obs.Counter
	planCacheMisses             *obs.Counter
	partitionCacheHits          *obs.Counter
	partitionCacheMisses        *obs.Counter
	partitionCacheInvalidations *obs.Counter
	partitionCacheRefreshes     *obs.Counter

	flightsActive     *obs.Gauge
	queriesKilled     *obs.Counter
	queriesKilledSent *obs.Counter
	eventsEmitted     *obs.Counter
}

func newDBMetrics() *dbMetrics {
	reg := obs.NewRegistry()
	m := &dbMetrics{
		reg: reg,
		queries: reg.Counter("sqlts_queries_total",
			"SELECT statements executed (EXPLAIN ANALYZE runs included)."),
		queryErrors: reg.Counter("sqlts_query_errors_total",
			"SELECT executions that returned an error."),
		rowsScanned: reg.Counter("sqlts_rows_scanned_total",
			"Input rows read by query executions."),
		rowsReturned: reg.Counter("sqlts_rows_returned_total",
			"Result rows produced by query executions."),
		predEvals: reg.Counter("sqlts_pred_evals_total",
			"Predicate evaluations — the paper's cost metric."),
		rollbacks: reg.Counter("sqlts_rollbacks_total",
			"Mismatch-handling events (shift/next applications, restarts)."),
		matches: reg.Counter("sqlts_matches_total",
			"Pattern occurrences reported by query executions."),
		clustersScanned: reg.Counter("sqlts_clusters_scanned_total",
			"Clusters searched by query executions."),
		slowQueries: reg.Counter("sqlts_slow_queries_total",
			"Queries exceeding the configured slow-query threshold."),
		queryDuration: reg.Histogram("sqlts_query_duration_seconds",
			"Per-query execution latency.", nil),
		queriesCanceled: reg.Counter("sqlts_queries_canceled_total",
			"Executions stopped by context cancellation."),
		queriesDeadline: reg.Counter("sqlts_query_deadline_exceeded_total",
			"Executions stopped by a deadline (context or RunOptions.Deadline)."),
		queriesBudget: reg.Counter("sqlts_query_budget_exceeded_total",
			"Executions stopped by a resource budget (MaxMatches, MaxRowsScanned)."),
		queryPanics: reg.Counter("sqlts_query_panics_total",
			"Predicate/executor panics contained at the query boundary."),
		admissionWaiting: reg.Gauge("sqlts_admission_waiting",
			"Executions currently queued for an admission slot."),
		admissionRejected: reg.Counter("sqlts_admission_rejected_total",
			"Executions rejected after waiting the admission timeout."),
		admissionWait: reg.Histogram("sqlts_admission_wait_seconds",
			"Queue wait of executions that were admitted after waiting.", nil),
		streamPushes: reg.Counter("sqlts_stream_pushes_total",
			"Tuples pushed into continuous queries."),
		streamMatches: reg.Counter("sqlts_stream_matches_total",
			"Matches emitted by continuous queries."),
		streamClusters: reg.Gauge("sqlts_stream_active_clusters",
			"Cluster matchers currently live across open streams."),
		streamsOpen: reg.Gauge("sqlts_streams_open",
			"Continuous queries currently open (OpenStream minus Close)."),
		streamPushDuration: reg.Histogram("sqlts_stream_push_duration_seconds",
			"Per-push stream latency (sampled 1 push in 16).", nil),
		streamPrunedRows: reg.Counter("sqlts_stream_pruned_rows_total",
			"Rows dropped from stream retained windows by pruning."),
		goroutines: reg.Gauge("sqlts_goroutines",
			"Goroutines, read at exposition."),
		heapAlloc: reg.Gauge("sqlts_heap_alloc_bytes",
			"Live heap bytes, read at exposition."),
		heapObjects: reg.Gauge("sqlts_heap_objects",
			"Live heap objects, read at exposition."),
		gcCycles: reg.Gauge("sqlts_gc_cycles_total",
			"Completed GC cycles, read at exposition."),
		gcPauseTotal: reg.Gauge("sqlts_gc_pause_total_ns",
			"Cumulative GC stop-the-world pause, read at exposition."),
		kernelCompiled: reg.Counter("sqlts_kernel_elements_compiled_total",
			"Pattern elements compiled to columnar predicate kernels at Prepare."),
		kernelFallback: reg.Counter("sqlts_kernel_elements_fallback_total",
			"Pattern elements left on the interpreter (opaque or disjunctive conditions)."),
		vectorizedRuns: reg.Counter("sqlts_vectorized_runs_total",
			"Query executions that probed through selection bitmasks."),
		driverHelpers: reg.CounterVec("sqlts_driver_helpers_total",
			"Helper goroutines of the cluster driver: borrowed (started beside the caller), denied (an elastic run found no idle core for one) and yielded (a borrowed helper left early because the process became oversubscribed).",
			"outcome", "borrowed", "denied", "yielded"),
		planCacheHits: reg.Counter("sqlts_plan_cache_hits_total",
			"Prepares served a cached plan (compile pipeline skipped)."),
		planCacheMisses: reg.Counter("sqlts_plan_cache_misses_total",
			"Prepares that compiled a plan (cold, evicted, or catalog-stale)."),
		partitionCacheHits: reg.Counter("sqlts_partition_cache_hits_total",
			"Executions that reused a cached cluster partition (sort skipped)."),
		partitionCacheMisses: reg.Counter("sqlts_partition_cache_misses_total",
			"Executions that built a cluster partition."),
		partitionCacheInvalidations: reg.Counter("sqlts_partition_cache_invalidations_total",
			"Cached partitions replaced because the table version moved (inserts/loads)."),
		partitionCacheRefreshes: reg.Counter("sqlts_partition_cache_refreshes_total",
			"Partition misses served by refreshing the stale cached partition per cluster instead of rebuilding it."),
		flightsActive: reg.Gauge("sqlts_flights_active",
			"Executions currently registered in the active-query registry."),
		queriesKilled: reg.Counter("sqlts_queries_killed_total",
			"Executions terminated by an operator kill (/debug/queries POST or REPL \\kill)."),
		queriesKilledSent: reg.Counter("sqlts_kill_requests_total",
			"Operator kill requests that matched an in-flight execution."),
		eventsEmitted: reg.Counter("sqlts_events_emitted_total",
			"Wide events delivered to the configured event sink."),
	}
	reg.OnCollect(m.sampleRuntime)
	return m
}

// sampleRuntime reads the Go runtime's memory and scheduler statistics
// into the sqlts_goroutines / sqlts_heap_* / sqlts_gc_* gauges.
func (m *dbMetrics) sampleRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.goroutines.Set(int64(runtime.NumGoroutine()))
	m.heapAlloc.Set(int64(ms.HeapAlloc))
	m.heapObjects.Set(int64(ms.HeapObjects))
	m.gcCycles.Set(int64(ms.NumGC))
	m.gcPauseTotal.Set(int64(ms.PauseTotalNs))
}

// Metrics returns the database's metrics registry. Callers may register
// additional application metrics on it; it is safe for concurrent use.
func (db *DB) Metrics() *obs.Registry { return db.metrics.reg }

// WriteMetrics renders the registry in the Prometheus text exposition
// format, runtime gauges read as it is written.
func (db *DB) WriteMetrics(w io.Writer) error {
	_, err := db.metrics.reg.WriteTo(w)
	return err
}

// MetricsHandler returns an http.Handler serving the exposition format,
// for mounting at /metrics.
func (db *DB) MetricsHandler() http.Handler { return db.metrics.reg.Handler() }

// SetSlowQueryThreshold sets the slow-query threshold: every execution
// whose duration (obs.Event.DurationNs: time after admission) is d or
// longer carries Slow in its event, increments sqlts_slow_queries_total
// and lands in the slow-query log. A zero d disables all three. To act on
// slow runs as they finish, filter ev.Slow in the EventSink, which
// receives every event synchronously.
func (db *DB) SetSlowQueryThreshold(d time.Duration) {
	db.slowNs.Store(d.Nanoseconds())
}

// observe feeds every view of one finished execution from its event: the
// metrics registry, the statement stats, the wide-event ring and sink,
// and — for a slow run or a contained panic, which is always worth
// retaining — the slow-query log. err is the run's error; it adds the
// panic stack, nothing that is counted.
func (db *DB) observe(q *Query, ev *obs.Event, err error) {
	m := db.metrics
	entry := q.plan.stmt.Entry(db.stmts, ev.SQL) // nil = statement tracking disabled
	panicked := false
	if err != nil {
		m.queryErrors.Inc()
		class := classifyError(err)
		panicked = class == obs.ErrPanic
		switch class {
		case obs.ErrCanceled:
			m.queriesCanceled.Inc()
		case obs.ErrDeadline:
			m.queriesDeadline.Inc()
		case obs.ErrBudget:
			m.queriesBudget.Inc()
		case obs.ErrPanic:
			m.queryPanics.Inc()
		case obs.ErrRejected:
			m.admissionRejected.Inc()
		case obs.ErrKilled:
			// Disjoint from queriesCanceled: a kill wraps the cancel sentinel
			// but classifies first, so operator kills never inflate the
			// plain-cancellation counter.
			m.queriesKilled.Inc()
		}
		entry.RecordError(class)
		entry.RecordAdmissionWait(ev.AdmissionWaitNs)
	} else {
		m.queries.Inc()
		m.rowsScanned.Add(ev.RowsScanned)
		m.rowsReturned.Add(ev.Rows)
		m.predEvals.Add(ev.PredEvals)
		m.rollbacks.Add(ev.Rollbacks)
		m.matches.Add(ev.Matches)
		m.clustersScanned.Add(ev.Clusters)
		m.queryDuration.Observe(ev.DurationNs)
		if ev.Vectorized {
			m.vectorizedRuns.Inc()
		}
		if ev.HelpersBorrowed+ev.HelpersDenied > 0 { // a yield follows a borrow
			m.driverHelpers.With("borrowed").Add(int64(ev.HelpersBorrowed))
			m.driverHelpers.With("denied").Add(int64(ev.HelpersDenied))
			m.driverHelpers.With("yielded").Add(int64(ev.HelpersYielded))
		}
		entry.RecordQuery(ev.QueryObs())
	}
	db.routeEvent(ev)
	if ev.Slow || panicked {
		db.retainSlow(q, ev, err)
	}
}

// retainSlow lands a slow run or a contained panic in the slow-query log:
// the event plus a report, the annotated plan or the captured stack.
func (db *DB) retainSlow(q *Query, ev *obs.Event, err error) {
	rec := SlowQueryRecord{Event: *ev}
	var pe *PanicError
	if errors.As(err, &pe) {
		rec.Report = fmt.Sprintf("panic: %v\n\n%s", pe.Value, pe.Stack)
	} else {
		rec.Report = q.reportBody(ev)
	}
	db.slow.Add(rec)
	if ev.Slow {
		db.metrics.slowQueries.Inc()
	}
}
