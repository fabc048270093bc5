package sqlts

// The cluster driver: the one way a batch query's clusters reach an
// executor. SQL-TS searches every CLUSTER BY group independently, so the
// driver's only parameter is how many lanes — goroutines, each with one
// executor and one output of its own — share the ordered cluster list;
// whatever the count, rows, Stats and Matches come out in cluster order,
// bit-identical to a one-lane run.

import (
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"sqlts/internal/engine"
	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/query"
	"sqlts/internal/storage"
)

// chunksPerWorker is how many chunks the cluster list is cut into per
// lane: more than one so clusters of uneven cost still balance and a
// borrowed helper can be given back early, few enough that claims and
// marks stay noise beside the search.
const chunksPerWorker = 4

// elasticMinRows is the input size below which a default run never fans
// out: the measured break-even of starting one helper goroutine and
// stitching two lanes (BenchmarkDriverBreakEven; docs/PERFORMANCE.md has
// the table).
const elasticMinRows = 32768

// searchers counts the goroutines of this process that are inside a
// fanned-out or elastic cluster search: the budget an elastic run borrows
// idle cores against. A one-lane run that could not have fanned out —
// MaxWorkers 1, an input under the elastic threshold — never touches it.
var searchers atomic.Int64

// faultDriverYield fires before every chunk claim of a borrowed helper; an
// injected error makes the helper leave as if the process were
// oversubscribed.
var faultDriverYield = fault.New("sqlts.driver.yield")

// chunkSize is the number of consecutive clusters a lane searches per
// claim: the whole list for one lane, otherwise an even cut into
// chunksPerWorker chunks per lane, rounded up to whole blocks of the
// partition once it is larger than one, so that every chunk but the last
// takes whole blocks and the blocks' bookings (engine.Booking).
func chunkSize(clusters, workers int) int {
	if workers <= 1 {
		return clusters
	}
	pieces := workers * chunksPerWorker
	size := max(1, (clusters+pieces-1)/pieces)
	if size > storage.BlockLen {
		size = (size + storage.BlockLen - 1) &^ (storage.BlockLen - 1)
	}
	return size
}

// batchRun is everything one batch run borrows and learns: its control,
// its lanes, each with its kept executor and blocks, the chunks' marks,
// claim counter and wait group, and what the driver found, which the
// run's event reports. The plan's pattern lends it from its pool when the
// run starts (DB.startRun) and takes it back when the run has succeeded
// (DB.endRun), so a warm run allocates none of it. A one-lane run is a
// fan of one: its only lane searches the whole list as one chunk on the
// calling goroutine, and its blocks are the result's.
type batchRun struct {
	rc runControl

	// What every lane reads: the query, the executor the run's options ask
	// for, and the ordered clusters with their memoized mask sets (empty
	// when the run has none), in the partition's blocks.
	q        *Query
	key      executorKey
	clusters storage.Blocks[[]storage.Row, struct{}]
	masks    engine.MaskBlocks

	// What the lanes share: the chunk length, the helpers' budget (0 when
	// they are not borrowed), the run's checkpoint, one mark per chunk,
	// written by the lane that searched it, the claim counter and the
	// failure flag.
	chunk, budget int
	check         func() error
	lanes         []lane
	marks         []mark
	next          atomic.Int64
	failed        atomic.Bool
	wg            sync.WaitGroup

	found findings
}

// findings is what the driver found of one run, which the run's event
// reports: the clusters searched, the lanes that searched at least one
// chunk, the helper goroutines started, how many more an elastic run
// would have taken had cores been idle, and how many borrowed helpers left
// early because the process became oversubscribed.
type findings struct {
	clusters, workers, borrowed, denied, yielded int
}

// lane is one worker's executor and output. Everything a lane finds is
// appended to its own blocks across every chunk it claims, one run per
// chunk (see engine.Block), so nothing is allocated per chunk and nothing
// is shared between lanes but the claim counter. The caller's lane is the
// result's: its blocks are reserved from the last run of the plan's
// pattern and become the result's memory. A helper's lane is scratch that
// its run keeps in the pattern's pool between runs: the stitch copies what
// it found, so a warm fanned-out run allocates what a one-lane run does,
// plus the stitched slices and a goroutine per helper, whether its helpers
// searched or not.
//
// A lane is also the sink its executor hands every chunk's clusters to
// (engine.RunSink), so it lives on the heap, in its run. Every lane keeps
// its executor from run to run, whose match and span blocks are scratch
// the executor rewinds after every cluster; the caller's lets go of the
// blocks it filled, which are the result's (keepExecutor).
type lane struct {
	ex       engine.Executor
	key      executorKey // what the kept ex was built for
	started  bool        // set up for the current run
	stats    engine.Stats
	clusters int32
	chunks   int // chunks searched: a lane with none did no work

	rows   engine.Block[storage.Row]
	values engine.Block[storage.Value] // the output rows are carved from it
	bounds engine.Block[int32]         // a record of counters per match (Result.Matches)

	// What the sink reads: the run's control and compiled statement, the
	// chunk handed to the executor, and where its runs of rows and match
	// records start in the blocks.
	rc               *runControl
	compiled         *query.Compiled
	run              engine.Run
	rowsAt, boundsAt int

	// yielded marks a borrowed helper that left with chunks unclaimed; err
	// is a panic contained outside any chunk.
	yielded bool
	err     error

	// Lanes sit side by side in one slice and write their own fields once a
	// cluster: the pad keeps a lane's writes off its neighbour's cache line.
	_ [64]byte
}

// mark is what one searched chunk left in its lane's blocks: the chunk's
// runs of rows and match records, which the stitch gathers in chunk order,
// or the error that stopped it. helper marks a chunk a helper searched,
// whose runs are scratch until the stitch copies them.
type mark struct {
	rows   []storage.Row
	bounds []int32
	err    error
	helper bool
}

// searchClusters runs the pattern over every cluster and puts the outcome
// in res in cluster order. rows is the input's row count.
//
// How many lanes search is workers, the run's RunOptions.MaxWorkers: 1 is
// one lane, N > 1 is N, and 0 is elastic — one lane, plus as many helpers
// as the process has idle cores for (borrowHelpers) when the input is
// large enough to repay them. The calling goroutine is always a lane, so
// N lanes start N-1 goroutines; all have exited when searchClusters
// returns. A run that could fan out enters every lane in the searcher
// count while it searches.
//
// The lanes claim chunks of consecutive clusters off an atomic counter,
// and once every lane has exited the chunks' marks are stitched in chunk
// order; one lane searches the whole list as one chunk, whose runs are the
// result's. The first failure stops further claims; claimed chunks run
// out, and the error of the lowest-indexed failed cluster is returned,
// never a partial result.
func (b *batchRun) searchClusters(res *Result, rows, workers int) error {
	n, helpers := b.clusters.Len(), 0
	switch {
	case workers > 1:
		if chunk := chunkSize(n, workers); chunk < n {
			helpers = min(workers, (n+chunk-1)/chunk) - 1
			searchers.Add(int64(helpers) + 1)
			defer searchers.Add(-1)
		}
	case workers == 0 && n >= 2*chunksPerWorker && rows >= elasticMinRows:
		// An elastic run that was granted no helper is one lane that keeps
		// its token while it searches.
		helpers, b.budget = borrowHelpers()
		b.found.denied = b.budget - 1 - helpers
		defer searchers.Add(-1)
	}
	if helpers > 0 {
		// A run that fans out is long enough to be seen: it registers here,
		// before its lanes claim a chunk, so every lane ticks its flight.
		b.rc.register(obs.PhaseRunning)
	}
	b.check = b.rc.interrupt()
	b.chunk = max(1, chunkSize(n, helpers+1))
	if c := cap(b.lanes); c <= helpers {
		b.lanes = append(b.lanes[:c], make([]lane, helpers+1-c)...)
	}
	b.lanes = b.lanes[:helpers+1]
	// Even an empty list is one chunk, searched by the caller's lane.
	if k := max(1, (n+b.chunk-1)/b.chunk); cap(b.marks) >= k {
		b.marks = b.marks[:k]
	} else {
		b.marks = make([]mark, k)
	}
	// The caller's lane is set up before any helper can claim: whoever
	// searches, the stitch gathers the result in its blocks.
	b.start(&b.lanes[0])
	for i := 1; i <= helpers; i++ {
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			defer searchers.Add(-1)
			b.claim(&b.lanes[i], b.budget > 0)
		}()
	}
	b.claim(&b.lanes[0], false)
	b.wg.Wait()
	b.found.borrowed = helpers
	return b.stitch(res)
}

// keepExecutor empties the caller's lane of a successful run, whose blocks
// are the result's, for the next run: the lane keeps only its executor,
// which lets go of the run's clusters, masks and checkpoint.
func (l *lane) keepExecutor() {
	l.ex.Recycle()
	*l = lane{ex: l.ex, key: l.key}
}

// borrowHelpers enters an elastic run in the process-wide searcher count
// and takes one helper for every core the count leaves idle: a helper is
// granted only while the count, callers included, is under GOMAXPROCS.
// Every caller may always search, so the count can pass the budget, but
// never by helpers. It returns the helpers granted — each holds a token
// it gives back when it exits, as the caller does — and the budget.
func borrowHelpers() (helpers, budget int) {
	budget = runtime.GOMAXPROCS(0)
	for c := searchers.Add(1); helpers < budget-1 && c < int64(budget); c = searchers.Load() {
		if searchers.CompareAndSwap(c, c+1) {
			helpers++
		}
	}
	return helpers, budget
}

// stitch puts the outcome of a run whose lanes have all exited into res:
// the error of the lowest-indexed failed chunk, or the chunks' rows and
// match records in chunk order. The runs of a single chunk the caller's
// lane searched are the result's; otherwise they are gathered, a helper's
// row values first copied into the caller's lane (lane.keep).
func (b *batchRun) stitch(res *Result) error {
	nrows, nbounds := 0, 0
	for i := range b.marks {
		if err := b.marks[i].err; err != nil {
			return err
		}
		nrows += len(b.marks[i].rows)
		nbounds += len(b.marks[i].bounds)
	}
	for i := range b.lanes {
		l := &b.lanes[i]
		if l.err != nil {
			return l.err
		}
		res.Stats.Add(l.stats)
		b.found.clusters += int(l.clusters)
		if l.chunks > 0 {
			b.found.workers++
		}
		if l.yielded {
			b.found.yielded++
		}
	}
	if m := &b.marks[0]; len(b.marks) == 1 && !m.helper {
		res.Rows, res.bounds = m.rows, m.bounds
		return nil
	}
	if nrows > 0 {
		res.Rows = make([]storage.Row, 0, nrows)
		res.bounds = make([]int32, 0, nbounds)
	}
	for i := range b.marks {
		m := &b.marks[i]
		if m.helper {
			b.lanes[0].keep(m)
		}
		res.Rows = append(res.Rows, m.rows...)
		res.bounds = append(res.bounds, m.bounds...)
	}
	return nil
}

// keep copies the row values of a chunk a helper searched into l, the
// caller's lane, and points m's rows at the copies. The helper's blocks
// are scratch that the pattern's next fanned-out run overwrites; l's hold
// the whole result when the run is shaped like the last, so keeping
// allocates nothing.
func (l *lane) keep(m *mark) {
	for i, row := range m.rows {
		v := l.values.Take(len(row))
		copy(v, row)
		m.rows[i] = v
	}
}

// runPool keeps a pattern's batch runs between the runs of its plans, so
// that their lanes' executors and scratch blocks are built once, not per
// run. It holds at most GOMAXPROCS runs, as read at its last miss: as many
// as can search at once. Only a miss reads GOMAXPROCS, which takes the
// scheduler's lock, so a warm run never does.
type runPool struct {
	mu    sync.Mutex
	free  []*batchRun
	limit int
}

// get lends a kept run, or a new one.
func (p *runPool) get() *batchRun {
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.limit = runtime.GOMAXPROCS(0)
		p.mu.Unlock()
		return new(batchRun)
	}
	b := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	return b
}

// put keeps b, a run that succeeded, for the pattern's next run. It lets
// go of everything the run's result holds — the caller's lane keeps only
// its executor — and of the partition and context the run searched, and
// readies every helper's lane for a run like this one now, searched or
// not, so that what a helper needs is allocated by this run and not by
// whichever later run it first gets a core in. A failed run is not kept:
// its lanes may have stopped anywhere.
func (p *runPool) put(b *batchRun) {
	if b.found.workers > 0 { // the run searched
		matches := int(b.q.plan.art.matches.Load())
		for i := 1; i < len(b.lanes); i++ {
			l := &b.lanes[i]
			b.prepare(l, len(b.lanes), matches)
			*l = lane{ex: l.ex, key: l.key, rows: l.rows, values: l.values, bounds: l.bounds}
		}
		b.lanes[0].keepExecutor()
	}
	clear(b.marks)
	b.rc = runControl{checkpointFn: b.rc.checkpointFn}
	b.q, b.check = nil, nil
	b.clusters, b.masks = storage.Blocks[[]storage.Row, struct{}]{}, engine.MaskBlocks{}
	b.budget, b.found = 0, findings{}
	b.next.Store(0)
	p.mu.Lock()
	if len(p.free) < p.limit {
		p.free = append(p.free, b)
	}
	p.mu.Unlock()
}

// claim is one lane's life: claim chunks until none is left or the run has
// failed — or, a borrowed helper, until the process is oversubscribed. A
// panic outside any chunk is contained here and fails the run.
func (b *batchRun) claim(l *lane, borrowed bool) {
	defer func() {
		if r := recover(); r != nil {
			l.err = b.q.recovered(r)
			b.failed.Store(true)
		}
	}()
	// failed is read before the claim, so every claimed chunk is searched:
	// the chunks that ran are always a prefix, and the lowest failed
	// cluster does not depend on scheduling.
	for !b.failed.Load() {
		if borrowed && (faultDriverYield.Fire() != nil || searchers.Load() > int64(b.budget)) {
			l.yielded = int(b.next.Load()) < len(b.marks)
			return
		}
		// A load first: the lane that finds the chunks gone leaves without
		// an atomic add, so a one-lane run makes a single claim.
		if int(b.next.Load()) >= len(b.marks) {
			return
		}
		c := int(b.next.Add(1)) - 1
		if c >= len(b.marks) {
			return
		}
		if !l.started {
			// A helper's lane is set up by its first chunk, so a helper that
			// finds the process oversubscribed, or the chunks gone, has cost
			// a goroutine and nothing else. The pool's put has readied it
			// already unless the options or the result changed since.
			b.prepare(l, len(b.lanes), int(b.q.plan.art.matches.Load()))
			b.begin(l)
		}
		lo := c * b.chunk
		b.marks[c].helper = l != &b.lanes[0]
		b.searchChunk(l, &b.marks[c], lo, min(lo+b.chunk, b.clusters.Len()))
		if b.marks[c].err != nil {
			b.failed.Store(true)
		}
	}
}

// start gives the caller's lane an executor for this run's options — the
// one it kept, unless they differ — and reserves the result the last run
// of the plan's pattern produced, so that a run shaped like the last
// allocates each of the lane's buffers once, however many lanes search:
// they are the result's, and a fanned-out run's helpers' finds are copied
// in.
func (b *batchRun) start(l *lane) {
	b.executor(l)
	if matches := int(b.q.plan.art.matches.Load()); matches > 0 {
		l.rows.Reserve(matches)
		l.values.Reserve(matches * len(b.q.plan.compiled.OutNames))
		l.bounds.Reserve(matches * b.q.plan.art.record())
	}
	b.begin(l)
}

// prepare gives a helper's lane, one of lanes, an executor for this run's
// options — the one it kept, unless they differ — and empties its blocks,
// to be overwritten, with room for its part of a result of matches output
// rows. The part is twice an equal share, capped at the whole: chunks may
// fall unevenly without a refill, and a wide fan's helpers do not each
// hold the whole result. A block that once outgrew its room keeps what it
// grew to.
func (b *batchRun) prepare(l *lane, lanes, matches int) {
	b.executor(l)
	part := min(matches, 2*((matches+lanes-1)/lanes))
	l.ex.Recycle()
	l.rows.Reset(part)
	l.values.Reset(part * len(b.q.plan.compiled.OutNames))
	l.bounds.Reset(part * b.q.plan.art.record())
}

// executor gives l an executor for this run's options: the one it kept,
// unless it was built for others.
func (b *batchRun) executor(l *lane) {
	if l.ex == nil || l.key != b.key {
		l.ex, l.key = b.q.plan.art.newExecutor(b.key), b.key
	}
}

// begin points a set-up lane at this run: its checkpoint and what its
// sink reads.
func (b *batchRun) begin(l *lane) {
	l.ex.SetInterrupt(b.check)
	l.rc, l.compiled = &b.rc, b.q.plan.compiled
	l.started = true
}

// executorKey is what newExecutor builds from besides the pattern; a
// lane's kept executor serves every run that agrees on it.
type executorKey struct {
	kind    ExecutorKind
	overlap bool
}

func (k executorKey) policy() engine.SkipPolicy {
	if k.overlap {
		return engine.SkipToNextRow
	}
	return engine.SkipPastLastRow
}

// searchChunk searches clusters [lo, hi) on lane l and leaves the chunk's
// mark in m: the runs of match records and projected rows it appended to
// the lane's blocks, or the error that stopped it. It is the containment
// boundary of the search: an engine.Interrupt unwind comes back as its
// typed error and any other panic as a *PanicError. It takes
// the cooperative checkpoint (cancellation, kill, MaxMatches) once, and
// hands the chunk to the executor as one engine.Run with the lane as its
// sink: the executor's run loop is what fires the sqlts.execute.cluster
// fault point and takes the checkpoint again before every cluster, when it
// searches cluster by cluster (lane.Enter), and the lane evaluates SELECT
// over every cluster's matches as they are found (lane.Found).
func (b *batchRun) searchChunk(l *lane, m *mark, lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			m.err = b.q.recovered(r)
		}
	}()
	if m.err = b.rc.check(); m.err != nil {
		return
	}
	l.rowsAt, l.boundsAt = l.rows.Len(), l.bounds.Len()
	l.run = engine.Run{Clusters: b.clusters, Masks: b.masks, Lo: lo, Hi: hi, Sink: l}
	if m.err = l.ex.FindRun(&l.run); m.err != nil {
		return
	}
	l.stats.Add(l.run.Stats)
	l.clusters += int32(hi - lo)
	l.chunks++
	m.rows, m.bounds = l.rows.Run(l.rowsAt), l.bounds.Run(l.boundsAt)
}

// Enter implements engine.RunSink: before each cluster the per-cluster loop
// searches, the sqlts.execute.cluster fault point and the checkpoint.
func (l *lane) Enter(int) error {
	if err := faultExecCluster.Fire(); err != nil {
		return err
	}
	return l.rc.check()
}

// Found implements engine.RunSink: the chunk's i-th cluster matched, so
// each match's output row is evaluated into the lane's blocks and the
// match is recorded as its cluster, its start and its elements' counters
// (Result.Matches): the executor's matches are scratch it overwrites once
// Found returns.
func (l *lane) Found(i int, ms []engine.Match, st engine.Stats) error {
	seq, width := storage.RowSeq(l.run.Clusters.At(i)), len(l.compiled.OutNames)
	w := 2 + len(ms[0].Spans)
	var recs []int32
	l.boundsAt, recs = l.bounds.Extend(l.boundsAt, len(ms)*w)
	for k, found := range ms {
		row, err := l.compiled.EvalSelectInto(l.values.Take(width), &seq, found.Spans)
		if err != nil {
			return err
		}
		l.rowsAt = l.rows.Append(l.rowsAt, row)
		rec := recs[k*w : (k+1)*w]
		rec[0], rec[1] = int32(i), int32(found.Start)
		for e, sp := range found.Spans {
			rec[2+e] = int32(sp.End + 1 - found.Start)
		}
	}
	l.rc.addMatches(st.Matches)
	return nil
}

// Tick implements engine.RunSink: the run's flight learns of the clusters
// searched since the last tick (runControl.tick).
func (l *lane) Tick(clusters, rows, matches int64) {
	l.rc.tick(clusters, rows, matches)
}

// recovered turns a recovered panic value into the run's error: an
// engine.Interrupt unwind is the typed cancellation/budget error it
// carries; anything else — a predicate bug, an injected fault — becomes
// a *PanicError with the statement key and the stack captured here, in
// the deferred call, while the panicking frames are still on it.
func (q *Query) recovered(r any) error {
	if in, ok := r.(engine.Interrupt); ok {
		return in.Err
	}
	return &PanicError{Statement: q.plan.key, Value: r, Stack: debug.Stack()}
}
