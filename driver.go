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
	"sqlts/internal/pattern"
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
// chunksPerWorker chunks per lane.
func chunkSize(clusters, workers int) int {
	if workers <= 1 {
		return clusters
	}
	pieces := workers * chunksPerWorker
	return max(1, (clusters+pieces-1)/pieces)
}

// search is what every lane of one run reads: the query, the run's
// control and options, and the ordered clusters with their memoized mask
// sets (empty when the run has none), in the partition's blocks.
type search struct {
	q        *Query
	rc       *runControl
	opts     RunOptions
	clusters storage.Blocks[[]storage.Row]
	masks    storage.Blocks[*pattern.MaskSet]
}

// lane is one worker's executor and output. Everything a lane finds is
// appended to its own blocks across every chunk it claims, one run per
// chunk (see engine.Block), so nothing is allocated per chunk and nothing
// is shared between lanes but the claim counter. The caller's lane is the
// result's: its blocks are reserved from the last run of the plan's
// pattern and become the result's memory. A helper's lane is scratch that
// its fan keeps in the pattern's pool between runs (fanPool): the stitch
// copies what it found, so a warm fanned-out run allocates what a
// one-lane run does, plus the stitched slices and a goroutine per helper,
// whether its helpers searched or not.
//
// A lane is also the sink its executor hands every chunk's clusters to
// (engine.RunSink), so it lives on the heap: in its fan, or — a one-lane
// run's — in its pattern (patternArtifact.solo) between runs. Every lane
// keeps its executor from run to run, whose match and span blocks are
// scratch the executor rewinds after every cluster; the caller's lets go
// of the blocks it filled, which are the result's (keepExecutor).
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
// How many lanes search is RunOptions.MaxWorkers: 1 is one lane, N > 1 is
// N, and 0 is elastic — one lane, plus as many helpers as the process has
// idle cores for (borrowHelpers) when the input is large enough to repay
// them. The calling goroutine is always a lane, so N lanes start N-1
// goroutines; all have exited when searchClusters returns.
//
// One lane searches the whole list as one chunk straight into res.
// Several claim chunks of consecutive clusters off an atomic counter, and
// once every lane has exited the chunks' marks are stitched in chunk
// order. The first failure stops further claims; claimed chunks run out,
// and the error of the lowest-indexed failed cluster is returned, never a
// partial result.
func (s search) searchClusters(res *Result, rows int) error {
	n, opts := s.clusters.Len(), s.opts
	switch {
	case opts.MaxWorkers > 1:
		if chunk := chunkSize(n, opts.MaxWorkers); chunk < n {
			helpers := min(opts.MaxWorkers, (n+chunk-1)/chunk) - 1
			searchers.Add(int64(helpers) + 1)
			return s.fanOut(res, helpers, 0)
		}
	case opts.MaxWorkers == 0 && n >= 2*chunksPerWorker && rows >= elasticMinRows:
		helpers, budget := borrowHelpers()
		res.denied = int32(budget - 1 - helpers)
		return s.fanOut(res, helpers, budget)
	}
	return s.oneLane(res)
}

// oneLane searches the whole cluster list as one chunk on the calling
// goroutine; the lane's runs are the result's. The lane is the one the
// plan's pattern keeps, with the executor the last one-lane run of a plan
// of the pattern built, unless there is none yet or another run holds it:
// then this run builds its own, and the pattern keeps whichever comes back
// first. So a never-seen statement over a cached pattern searches with a
// warm executor. A lane must be on the heap to be its executor's sink, so
// a run that allocated one would cost an object more than the search
// does, and the executor several more.
func (s *search) oneLane(res *Result) error {
	solo := &s.q.plan.art.solo
	l := solo.Swap(nil)
	if l == nil {
		l = new(lane)
	}
	var m mark
	s.start(l, s.rc.interrupt())
	s.searchChunk(l, &m, 0, s.clusters.Len())
	if m.err == nil {
		res.workers = 1
		res.Stats, res.clusters = l.stats, l.clusters
		res.Rows, res.bounds = m.rows, m.bounds
		// A failed run's lane is not kept: its executor may have stopped
		// anywhere.
		l.keepExecutor()
		solo.CompareAndSwap(nil, l)
	}
	return m.err
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

// fan is the state the lanes of one fanned-out run share: the claim
// counter, the failure flag, the run's checkpoint, and one mark per chunk,
// written by the lane that searched it. Between runs the fanPool of the
// plan's pattern keeps it, with its helper lanes.
type fan struct {
	search
	chunk, budget int
	check         func() error
	lanes         []lane
	marks         []mark
	next          atomic.Int64
	failed        atomic.Bool
	wg            sync.WaitGroup
}

// fanOut searches the clusters on helpers+1 lanes, the caller's included,
// and stitches their marks into res. Each lane holds a token of the
// searcher count, taken by the caller of fanOut, and gives it back when it
// is done. budget > 0 marks the helpers as borrowed: they re-read the
// searcher count before every claim and leave once the process is
// oversubscribed, their finished chunks staying in their lanes; the
// caller's lane claims until no chunk is left. An elastic run that was
// granted no helper is one lane that keeps its token while it searches.
// The fan comes from the pool of the plan's pattern and goes back once the
// run has succeeded. The receiver is a copy: the fan holds it for the lanes'
// goroutines, and the caller's own would move to the heap on the one-lane
// path too.
func (s search) fanOut(res *Result, helpers, budget int) error {
	defer searchers.Add(-1)
	if helpers == 0 {
		return s.oneLane(res)
	}
	// A run that fans out is long enough to be seen: it registers here,
	// before its lanes claim a chunk, so every lane ticks its flight.
	s.rc.register(obs.PhaseRunning)
	n := s.clusters.Len()
	f := s.q.plan.art.fans.get(helpers + 1)
	f.search, f.budget, f.check = s, budget, s.rc.interrupt()
	f.chunk = chunkSize(n, helpers+1)
	if k := (n + f.chunk - 1) / f.chunk; cap(f.marks) >= k {
		f.marks = f.marks[:k]
	} else {
		f.marks = make([]mark, k)
	}
	// The caller's lane is set up before any helper can claim: whoever
	// searches, the stitch gathers the result in its blocks.
	f.start(&f.lanes[0], f.check)
	f.wg.Add(helpers)
	for i := 1; i <= helpers; i++ {
		go func() {
			defer f.wg.Done()
			defer searchers.Add(-1)
			f.run(&f.lanes[i], budget > 0)
		}()
	}
	f.run(&f.lanes[0], false)
	f.wg.Wait()
	err := f.stitch(res, helpers)
	if err == nil {
		s.q.plan.art.fans.put(f, res)
	}
	return err
}

// stitch puts the outcome of a fanned-out run whose lanes have all exited
// into res: the error of the lowest-indexed failed chunk, or the chunks'
// rows and match records in chunk order, a helper's row values first
// copied into the caller's lane (lane.keep).
func (f *fan) stitch(res *Result, helpers int) error {
	nrows, nbounds := 0, 0
	for i := range f.marks {
		if err := f.marks[i].err; err != nil {
			return err
		}
		nrows += len(f.marks[i].rows)
		nbounds += len(f.marks[i].bounds)
	}
	res.borrowed = int32(helpers)
	for i := range f.lanes {
		l := &f.lanes[i]
		if l.err != nil {
			return l.err
		}
		res.Stats.Add(l.stats)
		res.clusters += l.clusters
		if l.chunks > 0 {
			res.workers++
		}
		if l.yielded {
			res.yielded++
		}
	}
	if nrows > 0 {
		res.Rows = make([]storage.Row, 0, nrows)
		res.bounds = make([]int32, 0, nbounds)
	}
	for i := range f.marks {
		m := &f.marks[i]
		if m.helper {
			f.lanes[0].keep(m)
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

// fanPool keeps a pattern's fans between the fanned-out runs of its plans,
// so that their helper lanes' executors and scratch blocks are built once,
// not per run. It holds at most GOMAXPROCS fans: as many as can run at
// once.
type fanPool struct {
	mu   sync.Mutex
	free []*fan
}

// get returns a kept fan, or a new one, with lanes lanes.
func (p *fanPool) get(lanes int) *fan {
	var f *fan
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		f = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	}
	p.mu.Unlock()
	if f == nil {
		f = new(fan)
	}
	if c := cap(f.lanes); c < lanes {
		f.lanes = append(f.lanes[:c], make([]lane, lanes-c)...)
	}
	f.lanes = f.lanes[:lanes]
	return f
}

// put keeps f, whose run succeeded with res, for the pattern's next
// fanned-out run. It lets go of everything res holds — the caller's lane,
// which keeps only its executor — and of the partition the run searched,
// and readies every helper's lane for a run like this one now, searched or
// not, so that what a helper needs is allocated by this run and not by
// whichever later run it first gets a core in. A failed run's fan is not kept: its lanes may have
// stopped anywhere.
func (p *fanPool) put(f *fan, res *Result) {
	for i := 1; i < len(f.lanes); i++ {
		l := &f.lanes[i]
		f.prepare(l, len(f.lanes), res.Stats.Matches)
		*l = lane{ex: l.ex, key: l.key, rows: l.rows, values: l.values, bounds: l.bounds}
	}
	f.lanes[0].keepExecutor()
	f.search, f.check = search{}, nil
	clear(f.marks)
	f.next.Store(0)
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, f)
	}
	p.mu.Unlock()
}

// run is one lane's life: claim chunks until none is left or the run has
// failed — or, a borrowed helper, until the process is oversubscribed. A
// panic outside any chunk is contained here and fails the run.
func (f *fan) run(l *lane, borrowed bool) {
	defer func() {
		if r := recover(); r != nil {
			l.err = f.q.recovered(r)
			f.failed.Store(true)
		}
	}()
	// failed is read before the claim, so every claimed chunk is searched:
	// the chunks that ran are always a prefix, and the lowest failed
	// cluster does not depend on scheduling.
	for !f.failed.Load() {
		if borrowed && (faultDriverYield.Fire() != nil || searchers.Load() > int64(f.budget)) {
			l.yielded = int(f.next.Load()) < len(f.marks)
			return
		}
		c := int(f.next.Add(1)) - 1
		if c >= len(f.marks) {
			return
		}
		if !l.started {
			// Set up by its first chunk: a helper that finds the process
			// oversubscribed, or the chunks gone, has cost a goroutine and
			// nothing else.
			f.startHelper(l, len(f.lanes), f.check)
		}
		lo := c * f.chunk
		f.marks[c].helper = l != &f.lanes[0]
		f.searchChunk(l, &f.marks[c], lo, min(lo+f.chunk, f.clusters.Len()))
		if f.marks[c].err != nil {
			f.failed.Store(true)
		}
	}
}

// start gives the caller's lane an executor for this search's options —
// the one it kept, unless they differ — and reserves the result the last
// run of the plan's pattern produced, so that a run shaped like the last
// allocates each of the lane's buffers once, however many lanes search:
// they are the result's, and a fanned-out run's helpers' finds are copied
// in.
func (s *search) start(l *lane, check func() error) {
	s.executor(l)
	if matches := int(s.q.plan.art.matches.Load()); matches > 0 {
		l.rows.Reserve(matches)
		l.values.Reserve(matches * len(s.q.plan.compiled.OutNames))
		l.bounds.Reserve(matches * s.q.plan.art.record())
	}
	s.begin(l, check)
}

// startHelper readies a helper's kept lane, one of lanes, for this run
// from the last result of the plan's pattern; the fan's put has done so
// already unless the options or the result changed since.
func (s *search) startHelper(l *lane, lanes int, check func() error) {
	s.prepare(l, lanes, int(s.q.plan.art.matches.Load()))
	s.begin(l, check)
}

// prepare gives a helper's lane, one of lanes, an executor for this
// search's options — the one it kept, unless they differ — and empties its
// blocks, to be overwritten, with room for its part of a result of
// matches output rows. The part is twice an equal share, capped at the
// whole: chunks may fall unevenly without a refill, and a wide fan's
// helpers do not each hold the whole result. A block that once outgrew
// its room keeps what it grew to.
func (s *search) prepare(l *lane, lanes, matches int) {
	s.executor(l)
	part := min(matches, 2*((matches+lanes-1)/lanes))
	l.ex.Recycle()
	l.rows.Reset(part)
	l.values.Reset(part * len(s.q.plan.compiled.OutNames))
	l.bounds.Reset(part * s.q.plan.art.record())
}

// executor gives l an executor for this search's options: the one it
// kept, unless it was built for others.
func (s *search) executor(l *lane) {
	if key := s.executorKey(); l.ex == nil || l.key != key {
		l.ex, l.key = s.q.plan.art.newExecutor(key), key
	}
}

// begin points a set-up lane at this run: its checkpoint, its masks, and
// what its sink reads.
func (s *search) begin(l *lane, check func() error) {
	l.ex.SetInterrupt(check)
	l.ex.SetVectorized(s.masks.Len() > 0)
	l.rc, l.compiled = s.rc, s.q.plan.compiled
	l.started = true
}

// executorKey is what newExecutor builds from besides the pattern; a
// lane's kept executor serves every run that agrees on it.
type executorKey struct {
	kind    ExecutorKind
	overlap bool
}

func (s *search) executorKey() executorKey {
	return executorKey{s.opts.Executor, s.opts.Overlap}
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
func (s *search) searchChunk(l *lane, m *mark, lo, hi int) {
	defer func() {
		if r := recover(); r != nil {
			m.err = s.q.recovered(r)
		}
	}()
	if m.err = s.rc.check(); m.err != nil {
		return
	}
	l.rowsAt, l.boundsAt = l.rows.Len(), l.bounds.Len()
	l.run = engine.Run{Clusters: s.clusters, Masks: s.masks, Lo: lo, Hi: hi, Sink: l}
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
	seq, width := l.run.Clusters.At(i), len(l.compiled.OutNames)
	w := 2 + len(ms[0].Spans)
	var recs []int32
	l.boundsAt, recs = l.bounds.Extend(l.boundsAt, len(ms)*w)
	for k, found := range ms {
		row, err := l.compiled.EvalSelectInto(l.values.Take(width), seq, found.Spans)
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
