package sqlts

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"sqlts/internal/obs"
)

// dbMetrics bundles the instruments every DB feeds while serving
// queries and streams. Instruments live in an obs.Registry exposed via
// DB.Metrics / DB.MetricsHandler in the Prometheus text format.
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

	vectorizedRuns  *obs.Counter
	adaptiveReplans *obs.Counter
	driverHelpers   *obs.CounterVec

	planCacheHits               *obs.Counter
	planCacheMisses             *obs.Counter
	partitionCacheHits          *obs.Counter
	partitionCacheMisses        *obs.Counter
	partitionCacheInvalidations *obs.Counter
	partitionCacheRefreshes     *obs.Counter

	shardsConfigured   *obs.Gauge
	shardQueries       *obs.Counter
	shardCacheHits     *obs.Counter
	shardCacheMisses   *obs.Counter
	shardBuilds        *obs.Counter
	shardRefreshes     *obs.Counter
	shardShardsRebuilt *obs.Counter
	shardShardsReused  *obs.Counter

	flightsActive     *obs.Gauge
	queriesKilled     *obs.Counter
	queriesKilledSent *obs.Counter
	eventsEmitted     *obs.Counter
}

func newDBMetrics() *dbMetrics {
	reg := obs.NewRegistry()
	return &dbMetrics{
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
			"Goroutines at the last runtime sample."),
		heapAlloc: reg.Gauge("sqlts_heap_alloc_bytes",
			"Live heap bytes at the last runtime sample."),
		heapObjects: reg.Gauge("sqlts_heap_objects",
			"Live heap objects at the last runtime sample."),
		gcCycles: reg.Gauge("sqlts_gc_cycles_total",
			"Completed GC cycles at the last runtime sample."),
		gcPauseTotal: reg.Gauge("sqlts_gc_pause_total_ns",
			"Cumulative GC stop-the-world pause at the last runtime sample."),
		kernelCompiled: reg.Counter("sqlts_kernel_elements_compiled_total",
			"Pattern elements compiled to columnar predicate kernels at Prepare."),
		kernelFallback: reg.Counter("sqlts_kernel_elements_fallback_total",
			"Pattern elements left on the interpreter (opaque or disjunctive conditions)."),
		vectorizedRuns: reg.Counter("sqlts_vectorized_runs_total",
			"Query executions that probed through selection bitmasks."),
		adaptiveReplans: reg.Counter("sqlts_adaptive_replans_total",
			"Plans re-derived by the adaptive optimizer: Auto executor flips to naive."),
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
		shardsConfigured: reg.Gauge("sqlts_shards_configured",
			"Shard count set via SetShards (0 or 1 = flat partition cache)."),
		shardQueries: reg.Counter("sqlts_shard_queries_total",
			"Query executions that read their clusters from the sharded partition cache."),
		shardCacheHits: reg.Counter("sqlts_shard_cache_hits_total",
			"Executions that reused a cached sharded partition unchanged."),
		shardCacheMisses: reg.Counter("sqlts_shard_cache_misses_total",
			"Executions that built or refreshed a sharded partition."),
		shardBuilds: reg.Counter("sqlts_shard_builds_total",
			"Sharded partitions built from scratch (cold, replaced table, or shard-count change)."),
		shardRefreshes: reg.Counter("sqlts_shard_refreshes_total",
			"Sharded partitions refreshed incrementally after appends."),
		shardShardsRebuilt: reg.Counter("sqlts_shard_shards_rebuilt_total",
			"Shards re-sorted by incremental refreshes (the shards appended rows landed in)."),
		shardShardsReused: reg.Counter("sqlts_shard_shards_reused_total",
			"Shards carried over untouched by incremental refreshes (memoized projections/masks kept)."),
		flightsActive: reg.Gauge("sqlts_flights_active",
			"Executions currently registered in the active-query registry."),
		queriesKilled: reg.Counter("sqlts_queries_killed_total",
			"Executions terminated by an operator kill (/debug/queries POST or REPL \\kill)."),
		queriesKilledSent: reg.Counter("sqlts_kill_requests_total",
			"Operator kill requests that matched an in-flight execution."),
		eventsEmitted: reg.Counter("sqlts_events_emitted_total",
			"Wide events delivered to the configured event sink."),
	}
}

// Metrics returns the database's metrics registry. Callers may register
// additional application metrics on it; it is safe for concurrent use.
func (db *DB) Metrics() *obs.Registry { return db.metrics.reg }

// WriteMetrics renders the registry in the Prometheus text exposition
// format.
func (db *DB) WriteMetrics(w io.Writer) error {
	_, err := db.metrics.reg.WriteTo(w)
	return err
}

// MetricsHandler returns an http.Handler serving the exposition format,
// for mounting at /metrics.
func (db *DB) MetricsHandler() http.Handler { return db.metrics.reg.Handler() }

// SetSlowQueryThreshold sets the slow-query threshold: every execution
// whose duration (obs.Event.DurationNs: time after admission) is d or
// longer carries Slow in its event, increments sqlts_slow_queries_total,
// lands in the slow-query log and, when fn is non-nil, is handed to fn
// synchronously from the executing goroutine (keep it cheap; copy and
// hand off for heavy processing). A zero d disables all four.
func (db *DB) SetSlowQueryThreshold(d time.Duration, fn func(obs.Event)) {
	db.slowMu.Lock()
	defer db.slowMu.Unlock()
	db.slowFn = fn
	db.slowNs.Store(d.Nanoseconds())
}

// observe feeds every view of one finished execution from its event: the
// metrics registry, the statement stats (which steer the adaptive
// optimizer), the wide-event ring and sink, and — for a slow run or a
// contained panic, which is always worth retaining — the slow-query log.
// res and err are the run's outcome (res is nil exactly when err is not);
// they add the rendered report and the panic stack, nothing that is
// counted.
func (db *DB) observe(q *Query, opts RunOptions, ev *obs.Event, res *Result, err error) {
	m := db.metrics
	entry := db.stmts.Get(ev.SQL) // nil = statement tracking disabled
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
		m.queryDuration.Observe(time.Duration(ev.DurationNs).Seconds())
		if ev.Vectorized {
			m.vectorizedRuns.Inc()
		}
		if ev.Shards > 1 {
			m.shardQueries.Inc()
		}
		if ev.HelpersBorrowed+ev.HelpersDenied > 0 { // a yield follows a borrow
			m.driverHelpers.With("borrowed").Add(int64(ev.HelpersBorrowed))
			m.driverHelpers.With("denied").Add(int64(ev.HelpersDenied))
			m.driverHelpers.With("yielded").Add(int64(ev.HelpersYielded))
		}
		entry.RecordQuery(ev.QueryObs())
		db.maybeAdapt(q, opts, entry)
	}
	db.routeEvent(ev)
	if ev.Slow || panicked {
		db.retainSlow(q, ev, res, err)
	}
}

// retainSlow lands a slow run or a contained panic in the slow-query log
// — the event plus a report: the annotated plan, or the captured stack —
// and hands a slow run's event to the hook.
func (db *DB) retainSlow(q *Query, ev *obs.Event, res *Result, err error) {
	rec := SlowQueryRecord{Event: *ev}
	var pe *PanicError
	if errors.As(err, &pe) {
		rec.Report = fmt.Sprintf("panic: %v\n\n%s", pe.Value, pe.Stack)
	} else {
		rec.Report = q.reportBody(ev, res)
	}
	db.slow.add(rec)
	if !ev.Slow {
		return
	}
	db.metrics.slowQueries.Inc()
	db.slowMu.Lock()
	fn := db.slowFn
	db.slowMu.Unlock()
	if fn != nil {
		fn(*ev)
	}
}
