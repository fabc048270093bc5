package sqlts

import (
	"context"
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/storage"
)

// StreamOptions configure a continuous query.
type StreamOptions struct {
	// Overlap reports overlapping occurrences (engine.SkipToNextRow).
	Overlap bool
	// MaxBuffer bounds the per-cluster retained window (0 = unbounded);
	// matches longer than the bound are abandoned.
	MaxBuffer int
	// Context, when non-nil, cancels the stream cooperatively: Push
	// checks it on entry and the per-cluster matchers check it at
	// amortized checkpoints, so even a single Push that triggers a long
	// match cascade stops promptly. A canceled stream returns
	// ErrCanceled/ErrDeadlineExceeded from Push/Close.
	Context context.Context
}

// Stream is a continuous (push-based) execution of a prepared SQL-TS
// query: tuples are pushed in arrival order and the SELECT output row of
// every completed match is delivered to the sink immediately. Tuples are
// routed to one incremental matcher per CLUSTER BY key, all of them one
// engine.StreamArena: one configuration, and per cluster a compact record
// and a window; within each cluster the SEQUENCE BY values must arrive in
// non-decreasing order (out-of-order input is rejected — a continuous
// query cannot re-sort an unbounded past).
type Stream struct {
	q    *Query
	m    *dbMetrics
	sink func(storage.Row) error
	// arena holds every cluster's matcher, with ids dense in first-arrival
	// order — the batch query's cluster order, which is the order Close
	// flushes them in. clusters maps a routing key to its id.
	arena    *engine.StreamArena
	clusters map[string]int32
	seqIdx   []int
	cluIdx   []int
	sinkErr  error
	closed   bool

	// rc carries the stream's cancellation state (nil without a
	// Context); failed poisons the stream permanently after a contained
	// panic — the matcher state is unusable, so every later Push/Close
	// returns the same PanicError.
	rc     *runControl
	failed error

	// entry is the statement-stats bucket pushes and matches accumulate
	// into (nil when statement tracking is disabled). pushSeq counts the
	// pushes that reached the matcher, and drives the 1-in-16 push-latency
	// sampling; opened is when the stream opened. The closing event reads
	// both.
	entry   *obs.StmtStats
	pushSeq uint64
	opened  time.Time

	// flight is the stream's active-query registration (nil with the
	// recorder off). It stays registered for the stream's whole lifetime
	// — open streams are in-flight work an operator can see and kill.
	flight *obs.Flight

	// last is the previous push's cluster (-1 before the first push). Its
	// recorded successor (engine.StreamArena.Next) predicts this push's
	// cluster, which skips building the key and the map lookup: arrivals
	// run in one cluster (the successor is the cluster itself) or cycle
	// through the clusters in a fixed order (a feed that reports every
	// symbol each day), so the cluster after the previous push's is
	// usually the one it was last time.
	last int32

	// cur is the cluster whose matcher is running (the emit callback's
	// target) and evals the arena's PredEvals when the flight was last
	// ticked, for the flight's exact per-push tick.
	cur   int32
	evals int64

	// Scratch reused by every push and emission, so a steady-state push
	// allocates nothing: the coerced tuple when a value needs coercing
	// (the matcher decodes it into its window), the routing key, and the
	// output row handed to the sink.
	row    storage.Row
	keyBuf []byte
	outRow storage.Row
}

// OpenStream starts a continuous execution of the query. The sink is
// called synchronously from Push/Close with each match's output row; a
// sink error aborts the stream (surfaced by the failing Push/Close).
// The row passed to the sink is only valid for the duration of the call
// — it is recycled for the next match; sinks that retain it must copy
// (storage.Row.Clone).
//
// Every per-cluster matcher reads the plan's own shift/next tables, the
// ones its batch runs read, so opening a stream computes none.
func (q *Query) OpenStream(opts StreamOptions, sink func(storage.Row) error) (*Stream, error) {
	compiled := q.plan.compiled
	if compiled.Pattern == nil {
		return nil, fmt.Errorf("sqlts: OpenStream requires a sequence pattern query")
	}
	fl := q.db.registerStream(q.plan.key)
	st := &Stream{
		q:        q,
		m:        q.db.metrics,
		sink:     sink,
		clusters: map[string]int32{},
		entry:    q.db.stmts.Get(q.plan.key),
		flight:   fl,
		rc:       newRunControl(opts.Context, RunOptions{}, fl),
		opened:   time.Now(),
		last:     -1,
		row:      make(storage.Row, compiled.Schema.Len()),
	}
	cfg := engine.StreamConfig{
		Policy:    engine.SkipPastLastRow,
		MaxBuffer: opts.MaxBuffer,
		Tables:    q.plan.tables,
		// emitMatch consumes Spans synchronously, so the matcher may
		// recycle them between emissions.
		ReuseSpans: true,
	}
	if opts.Overlap {
		cfg.Policy = engine.SkipToNextRow
	}
	for _, col := range compiled.SequenceBy {
		i, _ := compiled.Schema.ColumnIndex(col)
		st.seqIdx = append(st.seqIdx, i)
	}
	for _, col := range compiled.ClusterBy {
		i, _ := compiled.Schema.ColumnIndex(col)
		st.cluIdx = append(st.cluIdx, i)
	}
	st.arena = engine.NewStreamArena(compiled.Pattern, cfg, st.cluIdx, st.emitMatch)
	st.arena.UseKernel(q.plan.kernel)
	if st.rc != nil {
		// The bare check, not rc.interrupt(): Push ticks the flight by
		// the exact delta of the arena's evals instead of by checkpoint
		// intervals.
		st.arena.SetInterrupt(st.rc.check)
	}
	st.m.streamsOpen.Inc()
	st.entry.StreamOpened()
	return st, nil
}

// Stream prepares sql (through the plan cache) and opens a continuous
// execution of it — the push-based analogue of DB.Query. Repeated
// Stream calls with the same statement text share one compiled plan.
func (db *DB) Stream(sql string, opts StreamOptions, sink func(storage.Row) error) (*Stream, error) {
	q, err := db.Prepare(sql)
	if err != nil {
		db.metrics.queryErrors.Inc()
		return nil, err
	}
	return q.OpenStream(opts, sink)
}

// contain is the stream's panic-containment boundary, installed with
// defer around every advance of the matchers. An engine.Interrupt
// becomes the push's error (the stream stays usable — a later Push under
// an uncanceled context may proceed); any other panic poisons the stream
// permanently with a *PanicError carrying the captured stack.
func (st *Stream) contain(err *error) {
	r := recover()
	if r == nil {
		return
	}
	if in, ok := r.(engine.Interrupt); ok {
		st.tickEvals()
		*err = in.Err
		return
	}
	pe := &PanicError{Statement: st.q.plan.key, Value: r, Stack: debug.Stack()}
	st.failed = pe
	st.m.queryPanics.Inc()
	st.entry.RecordError(obs.ErrPanic)
	*err = pe
}

// tickEvals credits the flight with the predicate evaluations the
// matchers have spent since it was last ticked.
func (st *Stream) tickEvals() {
	evals := st.arena.Stats().PredEvals
	st.flight.TickPredEvals(evals - st.evals)
	st.evals = evals
}

// Push delivers one tuple (in table column order). It returns the first
// sink error, an ordering violation, a schema mismatch, the context's
// typed cancellation error, or the PanicError that poisoned the stream.
// The values are copied; the caller may reuse them.
func (st *Stream) Push(vals ...storage.Value) (err error) {
	if st.closed {
		return fmt.Errorf("sqlts: Push on a closed stream")
	}
	if st.failed != nil {
		return st.failed
	}
	if st.sinkErr != nil {
		return st.sinkErr
	}
	if e := st.rc.check(); e != nil {
		return e
	}
	defer st.contain(&err)
	schema := st.q.plan.compiled.Schema
	if len(vals) != schema.Len() {
		return fmt.Errorf("sqlts: Push arity %d, want %d", len(vals), schema.Len())
	}
	// The tuple is read in place unless a value needs coercing: the
	// matcher decodes it before any sink runs, and nothing keeps it.
	row := storage.Row(vals)
	for i := range vals {
		if t := vals[i].Type(); t != storage.TypeNull && t != schema.Columns[i].Type {
			if row, err = st.coerce(vals, schema); err != nil {
				return err
			}
			break
		}
	}

	// Per-push latency is sampled 1 push in 16: pushes are ~µs-scale, so
	// two clock reads on every one would be a measurable tax on the
	// steady-state streaming path. Push and pruned-row *counts* are
	// exact; only the latency histograms subsample.
	var pushStart time.Time
	sampled := st.pushSeq&15 == 0
	if sampled {
		pushStart = time.Now()
	}
	// Route to the previous push's cluster's successor when the tuple's
	// CLUSTER BY values are the key that cluster holds, and through the
	// map otherwise.
	id := int32(-1)
	if st.last >= 0 {
		id = st.arena.Next(st.last)
	}
	if id < 0 || !st.arena.HoldsKey(id, row) {
		id = st.route(row)
	}
	st.last = id
	// Enforce SEQUENCE BY arrival order within the cluster, against the
	// last tuple its window retains (none for a new cluster).
	if win, _ := st.arena.Window(id); win.Len() > 0 {
		last := win.Len() - 1
		for _, si := range st.seqIdx {
			prev := win.At(last, si)
			c, err := prev.Compare(row[si])
			if err != nil {
				return fmt.Errorf("sqlts: sequence-by comparison: %w", err)
			}
			if c > 0 {
				return fmt.Errorf("sqlts: out-of-order tuple for cluster %q: %s after %s",
					st.clusterLabel(row), row[si], prev)
			}
			if c < 0 {
				break
			}
		}
	}
	st.cur = id
	// The tuple reaches the matcher: it is one push in every view, counted
	// here and nowhere else. A push is a row: the flight derives its rows
	// from its pushes.
	st.pushSeq++
	st.m.streamPushes.Inc()
	st.flight.TickPushes(1)
	st.entry.RecordPush()
	prunedBefore := st.arena.Pruned()
	if err := st.arena.PushContained(id, row); err != nil {
		return err
	}
	st.tickEvals()
	pruned := st.arena.Pruned() - prunedBefore
	if pruned > 0 {
		st.m.streamPrunedRows.Add(pruned)
	}
	durNs := int64(-1) // negative = latency not sampled this push
	if sampled {
		durNs = time.Since(pushStart).Nanoseconds()
		st.m.streamPushDuration.Observe(durNs)
	}
	st.entry.RecordPushCost(durNs, pruned)
	return st.sinkErr
}

// coerce copies vals into the stream's scratch row, each value coerced
// to its column's type.
func (st *Stream) coerce(vals []storage.Value, schema *storage.Schema) (storage.Row, error) {
	for i, v := range vals {
		if !v.IsNull() && v.Type() != schema.Columns[i].Type {
			cv, err := v.Coerce(schema.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("sqlts: Push column %s: %w", schema.Columns[i].Name, err)
			}
			v = cv
		}
		st.row[i] = v
	}
	return st.row, nil
}

// route finds row's cluster through the map, by the type-tagged key
// batch clustering uses (built in a reused buffer), creating the cluster
// on its first tuple, and makes it the predicted successor of the
// previous push's cluster.
func (st *Stream) route(row storage.Row) int32 {
	st.keyBuf = storage.AppendRowKey(st.keyBuf[:0], row, st.cluIdx)
	id, ok := st.clusters[string(st.keyBuf)] // does not allocate
	if !ok {
		id = st.arena.Add(row)
		st.clusters[string(st.keyBuf)] = id
		st.m.streamClusters.Inc()
	}
	if st.last >= 0 {
		st.arena.SetNext(st.last, id)
	}
	return id
}

// emitMatch is every cluster matcher's emit callback: it runs
// synchronously from Push/Flush for every completed match.
func (st *Stream) emitMatch(m engine.Match) {
	if st.sinkErr != nil {
		return
	}
	st.m.streamMatches.Inc()
	st.entry.RecordPushMatch()
	st.flight.TickMatches(1)
	// Evaluate output expressions through the view of the matcher's
	// retained window (still covering the match during emission).
	// References past the match end (e.g. a trailing X.next) resolve to
	// NULL if that tuple has not arrived yet — streaming emits eagerly.
	// The spans are the matcher's recycled buffer (ReuseSpans), rebased
	// onto the window in place.
	window, base := st.arena.Window(st.cur)
	spans := m.Spans
	for k := range spans {
		if spans[k].Set {
			spans[k].Start -= base
			spans[k].End -= base
		}
	}
	row, err := st.q.plan.compiled.EvalSelectInto(st.outRow, &window, spans)
	if err != nil {
		st.sinkErr = err
		return
	}
	st.outRow = row
	if err := st.sink(row); err != nil {
		st.sinkErr = err
	}
}

// clusterLabel renders row's cluster-by values for an error message.
func (st *Stream) clusterLabel(row storage.Row) string {
	var b strings.Builder
	for k, i := range st.cluIdx {
		if k > 0 {
			b.WriteByte(',')
		}
		b.WriteString(row[i].String())
	}
	return b.String()
}

// Close flushes every cluster (completing trailing-star matches) and
// returns the first error encountered. The stream gauges are released
// whatever happens during the flush — including a contained panic.
func (st *Stream) Close() (err error) {
	if st.closed {
		return nil
	}
	st.closed = true
	defer func() {
		st.m.streamClusters.Add(-int64(st.arena.Len()))
		st.m.streamsOpen.Dec()
		st.entry.StreamClosed()
		st.q.db.deregisterFlight(st.flight)
		st.q.db.emitStreamEvent(st, err)
	}()
	if st.failed != nil {
		return st.failed
	}
	// A canceled stream cannot complete its trailing matches: report the
	// cancellation instead of silently flushing a truncated window.
	if err := st.rc.check(); err != nil {
		return err
	}
	if err := st.flushAll(); err != nil {
		return err
	}
	return st.sinkErr
}

// flushAll flushes the cluster matchers, in first-arrival order so that
// the rows a trailing star completes at Close come out in the order the
// batch query returns them, inside the containment boundary (a
// trailing-star completion evaluates predicates, which may hit the
// interrupt checkpoint or panic).
func (st *Stream) flushAll() (err error) {
	defer st.contain(&err)
	for id := range int32(st.arena.Len()) {
		st.cur = id
		st.arena.Flush(id)
		st.tickEvals()
	}
	return nil
}

// Stats returns the runtime counters accumulated across all clusters.
func (st *Stream) Stats() engine.Stats { return st.arena.Stats() }
