package sqlts

import (
	"bytes"
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
	// LastRowSkip enables the last-row-skip runtime extension.
	LastRowSkip bool
	// MaxBuffer bounds the per-cluster retained window (0 = unbounded);
	// matches longer than the bound are abandoned.
	MaxBuffer int
	// NoKernel disables the compiled columnar predicate kernels for this
	// stream and interprets every probe (see RunOptions.NoKernel).
	NoKernel bool
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
// routed to one incremental matcher per CLUSTER BY key; within each
// cluster the SEQUENCE BY values must arrive in non-decreasing order
// (out-of-order input is rejected — a continuous query cannot re-sort an
// unbounded past).
type Stream struct {
	q        *Query
	opts     StreamOptions
	sink     func(storage.Row) error
	clusters map[string]*clusterStream
	// order holds the cluster streams in first-arrival order — the batch
	// query's cluster order — which is the order Close flushes them in.
	order   []*clusterStream
	seqIdx  []int
	cluIdx  []int
	sinkErr error
	closed  bool

	// What every cluster's matcher is built from: the configuration
	// (with the stream shift/next tables), one emit callback and one
	// interrupt (nil without an rc), shared rather than made per cluster.
	cfg       engine.StreamConfig
	emit      func(engine.Match)
	interrupt func() error

	// rc carries the stream's cancellation state (nil without a
	// Context); failed poisons the stream permanently after a contained
	// panic — the matcher state is unusable, so every later Push/Close
	// returns the same PanicError.
	rc     *runControl
	failed error

	// entry is the statement-stats bucket pushes and matches accumulate
	// into (nil when statement tracking is disabled); pushSeq drives the
	// 1-in-16 push-latency sampling.
	entry   *obs.StmtStats
	pushSeq uint64

	// flight is the stream's active-query registration (nil with the
	// recorder off). It stays registered for the stream's whole lifetime
	// — open streams are in-flight work an operator can see and kill.
	flight *obs.Flight

	// last is the previous push's cluster. Its next link predicts this
	// push's cluster (see clusterStream.next), which skips the map lookup.
	last *clusterStream

	// cur is the cluster whose matcher is running (the shared emit
	// callback's target) and curEvals its PredEvals when the push
	// entered it, for the flight's exact per-push tick.
	cur      *clusterStream
	curEvals int64

	// Scratch reused by every push and emission, so a steady-state push
	// allocates nothing: the coerced tuple (the matcher copies out of
	// it), the routing key, and the output row handed to the sink.
	row    storage.Row
	keyBuf []byte
	outRow storage.Row
}

// clusterStream is one CLUSTER BY key's state, in one allocation so that
// a push reaches all of it through one pointer: the matcher by value,
// the routing key, and copies of the previous tuple's SEQUENCE BY values
// (keyBuf and seqBuf back them when the key is short and there is one
// sequence column). The copies may not alias a matcher window slot or a
// pushed row, because both are reused.
type clusterStream struct {
	s       engine.Streamer
	key     []byte // storage.AppendRowKey of the CLUSTER BY values
	lastSeq []storage.Value
	keyBuf  [24]byte
	seqBuf  [1]storage.Value

	// next is the cluster that followed this one the last time this one
	// was pushed to. Arrivals run in one cluster (next is the cluster
	// itself) or cycle through the clusters in a fixed order (a feed that
	// reports every symbol each day), so the cluster after the previous
	// push's is usually the one it was last time.
	next *clusterStream
}

// OpenStream starts a continuous execution of the query. The sink is
// called synchronously from Push/Close with each match's output row; a
// sink error aborts the stream (surfaced by the failing Push/Close).
// The row passed to the sink is only valid for the duration of the call
// — it is recycled for the next match; sinks that retain it must copy
// (storage.Row.Clone).
//
// The stream shift/next tables are computed once per pattern and shared
// by every stream (and every per-cluster matcher) over every plan that
// shares it, so repeated OpenStream calls on a cached plan skip that work
// too.
func (q *Query) OpenStream(opts StreamOptions, sink func(storage.Row) error) (*Stream, error) {
	compiled := q.plan.compiled
	if compiled.Pattern == nil {
		return nil, fmt.Errorf("sqlts: OpenStream requires a sequence pattern query")
	}
	fl := q.db.registerFlight(q.plan.key, "stream", obs.PhaseStreaming)
	st := &Stream{
		q:        q,
		opts:     opts,
		sink:     sink,
		clusters: map[string]*clusterStream{},
		entry:    q.db.stmts.Get(q.plan.key),
		flight:   fl,
		rc:       newRunControl(opts.Context, RunOptions{}, fl),
		row:      make(storage.Row, compiled.Schema.Len()),
		cfg: engine.StreamConfig{
			Policy:      engine.SkipPastLastRow,
			LastRowSkip: opts.LastRowSkip,
			MaxBuffer:   opts.MaxBuffer,
			Tables:      q.plan.art.streamTabs(),
			// emitMatch consumes Spans synchronously, so the matcher may
			// recycle them between emissions.
			ReuseSpans: true,
		},
	}
	if opts.Overlap {
		st.cfg.Policy = engine.SkipToNextRow
	}
	st.emit = func(m engine.Match) { st.emitMatch(st.cur, m) }
	if st.rc != nil {
		// The bare check, not rc.interrupt(): a cluster's matcher counts
		// only its own evals, so Push ticks the flight by the exact
		// delta instead of by checkpoint intervals.
		st.interrupt = st.rc.check
	}
	for _, col := range compiled.SequenceBy {
		i, _ := compiled.Schema.ColumnIndex(col)
		st.seqIdx = append(st.seqIdx, i)
	}
	for _, col := range compiled.ClusterBy {
		i, _ := compiled.Schema.ColumnIndex(col)
		st.cluIdx = append(st.cluIdx, i)
	}
	q.db.metrics.streamsOpen.Inc()
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
	st.q.db.metrics.queryPanics.Inc()
	st.entry.RecordError(obs.ErrPanic)
	*err = pe
}

// tickEvals credits the flight with the predicate evaluations the
// current cluster's matcher has spent since the push entered it.
func (st *Stream) tickEvals() {
	evals := st.cur.s.Stats().PredEvals
	st.flight.TickPredEvals(evals - st.curEvals)
	st.curEvals = evals
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
	row := st.row
	for i, v := range vals {
		if !v.IsNull() && v.Type() != schema.Columns[i].Type {
			cv, err := v.Coerce(schema.Columns[i].Type)
			if err != nil {
				return fmt.Errorf("sqlts: Push column %s: %w", schema.Columns[i].Name, err)
			}
			v = cv
		}
		row[i] = v
	}

	m := st.q.db.metrics
	m.streamPushes.Inc()
	st.flight.TickPushes(1)
	st.flight.TickRows(1)
	// Per-push latency is sampled 1 push in 16: pushes are ~µs-scale, so
	// two clock reads on every one would be a measurable tax on the
	// steady-state streaming path. Push and pruned-row *counts* are
	// exact; only the latency histograms subsample.
	var pushStart time.Time
	sampled := st.pushSeq&15 == 0
	st.pushSeq++
	if sampled {
		pushStart = time.Now()
	}
	// The type-tagged key batch clustering uses, built in a reused buffer.
	st.keyBuf = storage.AppendRowKey(st.keyBuf[:0], row, st.cluIdx)
	var cs *clusterStream
	if st.last != nil {
		cs = st.last.next
	}
	if cs == nil || !bytes.Equal(cs.key, st.keyBuf) {
		cs = st.clusters[string(st.keyBuf)] // does not allocate
		if cs == nil {
			cs = st.newClusterStream(row)
			st.clusters[string(st.keyBuf)] = cs
			st.order = append(st.order, cs)
			m.streamClusters.Inc()
		}
		if st.last != nil {
			st.last.next = cs
		}
	}
	st.last = cs
	// Enforce SEQUENCE BY arrival order within the cluster.
	for k, si := range st.seqIdx {
		c, err := cs.lastSeq[k].Compare(row[si])
		if err != nil {
			return fmt.Errorf("sqlts: sequence-by comparison: %w", err)
		}
		if c > 0 {
			return fmt.Errorf("sqlts: out-of-order tuple for cluster %q: %s after %s",
				st.clusterLabel(row), row[si], cs.lastSeq[k])
		}
		if c < 0 {
			break
		}
	}
	for k, si := range st.seqIdx {
		cs.lastSeq[k] = row[si]
	}
	st.cur, st.curEvals = cs, cs.s.Stats().PredEvals
	prunedBefore := cs.s.Pruned()
	if err := cs.s.PushContained(row); err != nil {
		return err
	}
	st.tickEvals()
	pruned := cs.s.Pruned() - prunedBefore
	if pruned > 0 {
		m.streamPrunedRows.Add(pruned)
	}
	durNs := int64(-1) // negative = latency not sampled this push
	if sampled {
		d := time.Since(pushStart)
		m.streamPushDuration.Observe(d.Seconds())
		durNs = d.Nanoseconds()
	}
	st.entry.RecordPush(durNs, pruned)
	return st.sinkErr
}

// newClusterStream builds the state of the cluster whose first tuple is
// row (which therefore passes the arrival-order check against itself)
// and whose key is in st.keyBuf.
func (st *Stream) newClusterStream(row storage.Row) *clusterStream {
	cs := &clusterStream{}
	cs.key = append(cs.keyBuf[:0], st.keyBuf...)
	cs.lastSeq = cs.seqBuf[:0]
	for _, si := range st.seqIdx {
		cs.lastSeq = append(cs.lastSeq, row[si])
	}
	cs.s.Init(st.q.plan.compiled.Pattern, st.cfg, st.emit)
	cs.s.SetInterrupt(st.interrupt)
	if !st.opts.NoKernel {
		cs.s.UseKernel(st.q.plan.kernel)
	}
	return cs
}

// emitMatch is every cluster matcher's emit callback: it runs
// synchronously from Push/Flush for every completed match.
func (st *Stream) emitMatch(cs *clusterStream, m engine.Match) {
	if st.sinkErr != nil {
		return
	}
	st.q.db.metrics.streamMatches.Inc()
	st.entry.RecordPushMatch()
	st.flight.TickMatches(1)
	// Evaluate output expressions against the matcher's retained
	// window (still covering the match during emission). References
	// past the match end (e.g. a trailing X.next) resolve to NULL if
	// that tuple has not arrived yet — streaming emits eagerly. The
	// spans are the matcher's recycled buffer (ReuseSpans), rebased onto
	// the window in place.
	window, base := cs.s.Window()
	spans := m.Spans
	for k := range spans {
		if spans[k].Set {
			spans[k].Start -= base
			spans[k].End -= base
		}
	}
	row, err := st.q.plan.compiled.EvalSelectInto(st.outRow, window, spans)
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
		st.q.db.metrics.streamClusters.Add(-int64(len(st.clusters)))
		st.q.db.metrics.streamsOpen.Dec()
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
	for _, cs := range st.order {
		st.cur, st.curEvals = cs, cs.s.Stats().PredEvals
		cs.s.Flush()
		st.tickEvals()
	}
	return nil
}

// Stats aggregates runtime counters across all clusters.
func (st *Stream) Stats() engine.Stats {
	var out engine.Stats
	for _, cs := range st.order {
		out.Add(cs.s.Stats())
	}
	return out
}
