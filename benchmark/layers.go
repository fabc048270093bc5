package main

// The traced pass: per-layer numbers taken from outside the program.
//
// Every probe here binds to a function one of the repo's packages
// exports today and calls it directly on the workload's own inputs, the
// way the library's execute path does. A traced operation is a span
// tree: root "op", a child per real library call ("sqlts.query", ...),
// and a sibling "replay" whose children are the stages on that
// workload's path. Stages that are not on the path (parse on a warm
// workload) are measured in a few whole-pipeline "cold" replays beside
// the traced operations, together with probes that have no place on any
// path (naive search, shard build, observation primitives).
//
// A later PR that removes a probed function is preceded by a benchmark
// issue retiring that probe.

import (
	"fmt"
	"runtime"
	"time"

	"sqlts"
	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/obs"
	"sqlts/internal/pattern"
	"sqlts/internal/query"
	"sqlts/internal/shard"
	"sqlts/internal/storage"
)

// Stage names: the layer's package, then what it does there.
const (
	stParse      = "query.parse"
	stAnalyze    = "query.analyze"
	stMatrices   = "core.matrices"
	stTables     = "core.tables"
	stKernel     = "pattern.kernel_compile"
	stSort       = "storage.cluster_sort"
	stProjection = "storage.projection"
	stMasks      = "pattern.mask_build"
	stSearch     = "engine.search"
	stSelect     = "query.select_eval"
	stInsert     = "storage.insert"
	// Probes: never on a path.
	stPairwise     = "constraint.pairwise"
	stNaive        = "engine.naive_search"
	stShardBuild   = "shard.build"
	stShardRefresh = "shard.refresh"
)

// coldStages is a whole cold execution in order followed by the probes;
// streamColdStages is the part of it a continuous query pays.
var (
	coldStages = []string{stParse, stAnalyze, stMatrices, stTables, stKernel, stSort, stProjection, stMasks, stSearch, stSelect,
		stPairwise, stNaive, stInsert, stShardBuild, stShardRefresh}
	streamColdStages = []string{stParse, stAnalyze, stMatrices, stTables, stKernel, stPairwise}
)

// paths names, per workload, the stages one operation pays. The
// envelope is the library call minus these.
var paths = map[string][]string{
	"warm_long":     {stSearch, stSelect},
	"warm_tiny":     {stSearch, stSelect},
	"warm_many":     {stSearch, stSelect},
	"warm_many_sat": {stSearch, stSelect},
	// Plan miss, partition hit: no cluster sort, but the new kernel
	// finds no memoized projection or masks.
	"cold_plan": {stParse, stAnalyze, stMatrices, stTables, stKernel, stProjection, stMasks, stSearch, stSelect},
	// Plan hit, partition miss.
	"ingest_many": {stInsert, stSort, stProjection, stMasks, stSearch, stSelect},
}

// batchInstance is an instance that serves a table through db.Query.
type batchInstance interface {
	instance
	base() *served
}

type foundMatch struct {
	cluster int
	m       engine.Match
}

// replayer holds the artifacts one stage leaves for the next, exactly
// what Plan and partitionEntry hold inside the library.
type replayer struct {
	tr  *tracer
	tbl *storage.Table
	sql string

	sel      *query.SelectStmt
	compiled *query.Compiled
	mats     *core.Matrices
	tables   *core.Tables
	kernel   *pattern.Kernel

	clusters [][]storage.Row
	projs    []*storage.Projection
	masks    []*pattern.MaskSet
	found    []foundMatch
	rows     []storage.Row

	// Counts the stages take at their own boundaries.
	implChecks int64
	stats      engine.Stats
	naive      engine.Stats // the naive probe, and the OPS search
	coldStats  engine.Stats // it is compared with: same cold replay
	maskRows   int64
	dirty      int64

	scratch *storage.Table // target of storage.insert
	extra   []storage.Row  // the 8 rows it inserts
	part    *shard.Partition
	grown   []storage.Row // the partition's snapshot plus extra
	nshards int
}

func newReplayer(tr *tracer, tbl *storage.Table, sql string) *replayer {
	r := &replayer{tr: tr, tbl: tbl, sql: sql, nshards: max(2, runtime.NumCPU())}
	r.scratch = storage.NewTable(tbl.Name, tbl.Schema)
	// Eight rows past the end of the table: same symbols as existing
	// rows, later dates.
	rows, _ := tbl.Snapshot()
	di := len(tbl.Schema.Columns) - 2 // (…, date, price)
	for i := 0; i < insertRows && len(rows) > 0; i++ {
		row := rows[(i*7919)%len(rows)].Clone()
		row[di] = storage.NewDateDays(1_000_000 + int64(i))
		r.extra = append(r.extra, row)
	}
	return r
}

// run executes one stage inside a span.
func (r *replayer) run(op, parent int32, cold bool, name string) error {
	if name == stShardRefresh {
		// The built partition's own snapshot plus the 8 appended rows, as
		// an insert into the table would present them to Refresh.
		rows, _ := r.tbl.Snapshot()
		r.grown = append(rows[:r.part.Rows():r.part.Rows()], r.extra...)
	}
	id := r.tr.begin(op, parent, name, cold)
	err := r.stage(name)
	sp := r.tr.end(id)
	switch name {
	case stMatrices:
		sp.count("implication_checks", r.implChecks)
	case stMasks:
		sp.count("rows", r.maskRows)
	case stSearch:
		sp.count("pred_evals", r.stats.PredEvals)
		sp.count("rollbacks", r.stats.Rollbacks)
		sp.count("matches", int64(r.stats.Matches))
	case stNaive:
		sp.count("pred_evals", r.naive.PredEvals)
	case stSelect:
		sp.count("rows", int64(len(r.rows)))
	case stShardRefresh:
		sp.count("shards_rebuilt", r.dirty)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

func (r *replayer) stage(name string) error {
	switch name {
	case stParse:
		st, err := query.Parse(r.sql)
		if err != nil {
			return err
		}
		sel, ok := st.(*query.SelectStmt)
		if !ok {
			return fmt.Errorf("not a SELECT")
		}
		r.sel = sel
	case stAnalyze:
		c, err := query.Analyze(r.sel, r.tbl.Schema, query.AnalyzeOptions{PositiveColumns: []string{"price"}})
		if err != nil {
			return err
		}
		r.compiled = c
	case stMatrices:
		q0 := constraint.Queries()
		r.mats = core.ComputeMatrices(r.compiled.Pattern)
		r.implChecks = constraint.Queries() - q0
	case stTables:
		r.tables = core.TablesFrom(r.compiled.Pattern, r.mats)
	case stKernel:
		r.kernel = r.compiled.Pattern.CompileKernel()
	case stSort:
		cl, _, err := r.tbl.ClusterVersion(r.compiled.ClusterBy, r.compiled.SequenceBy)
		if err != nil {
			return err
		}
		r.clusters = cl
	case stProjection:
		r.projs = make([]*storage.Projection, len(r.clusters))
		for i, cl := range r.clusters {
			r.projs[i] = r.kernel.NewProjection()
			r.projs[i].SetRows(cl)
		}
	case stMasks:
		r.masks, r.maskRows = nil, 0
		if r.kernel.VecElems() == 0 {
			return nil
		}
		r.masks = make([]*pattern.MaskSet, len(r.clusters))
		for i := range r.clusters {
			r.masks[i] = r.kernel.BuildMasks(r.projs[i], nil)
			r.maskRows += int64(len(r.clusters[i]))
		}
	case stSearch:
		ex := engine.NewOPS(r.compiled.Pattern, r.tables, engine.OPSConfig{Policy: engine.SkipPastLastRow})
		ex.UseKernel(r.kernel)
		r.stats = r.search(ex)
	case stNaive:
		ex := engine.NewNaive(r.compiled.Pattern, engine.SkipPastLastRow)
		ex.UseKernel(r.kernel)
		found := r.found
		r.found = nil
		r.naive, r.coldStats = r.search(ex), r.stats
		r.found = found
	case stSelect:
		// Matches were collected by the search stage; SELECT runs in its
		// own loop so each stage's timestamps sit outside its loop.
		r.rows = r.rows[:0]
		for _, f := range r.found {
			row, err := r.compiled.EvalSelect(r.clusters[f.cluster], f.m.Spans)
			if err != nil {
				return err
			}
			r.rows = append(r.rows, row)
		}
	case stInsert:
		for _, row := range r.extra {
			if err := r.scratch.Insert(row...); err != nil {
				return err
			}
		}
	case stPairwise:
		elems := r.compiled.Pattern.Elems
		for j := range elems {
			for k := range elems {
				if j != k {
					elems[j].Sys.Implies(elems[k].Sys)
					elems[j].Sys.Excludes(elems[k].Sys)
					elems[j].Sys.NegImplies(elems[k].Sys)
				}
			}
		}
	case stShardBuild:
		rows, version := r.tbl.Snapshot()
		cidx, err := r.tbl.ColumnIndexes(r.compiled.ClusterBy)
		if err != nil {
			return err
		}
		sidx, err := r.tbl.ColumnIndexes(r.compiled.SequenceBy)
		if err != nil {
			return err
		}
		r.part, err = shard.Build(rows, version, cidx, sidx, r.nshards)
		return err
	case stShardRefresh:
		_, st, ok := r.part.Refresh(r.grown, r.part.Version()+1)
		if !ok {
			return fmt.Errorf("refresh refused an append-only delta")
		}
		r.dirty = int64(st.Dirty)
	default:
		return fmt.Errorf("unknown stage")
	}
	return nil
}

// search drives one executor over every cluster with the projection and
// masks attached as the library's execute does, collecting matches.
func (r *replayer) search(ex engine.Executor) engine.Stats {
	if r.masks != nil {
		ex.SetVectorized(true)
	}
	var total engine.Stats
	r.found = r.found[:0]
	for ci, seq := range r.clusters {
		ex.UseProjection(r.projs[ci])
		if r.masks != nil {
			ex.UseMasks(r.masks[ci])
		}
		ms, stats := ex.FindAll(seq)
		total.Add(stats)
		for _, m := range ms {
			r.found = append(r.found, foundMatch{cluster: ci, m: m})
		}
	}
	return total
}

// coldReplay runs the whole pipeline and the probes under one root.
func (r *replayer) coldReplay(op int32, stages []string) error {
	root := r.tr.begin(op, 0, "op", true)
	replay := r.tr.begin(op, root, "replay", true)
	for _, name := range stages {
		if err := r.run(op, replay, true, name); err != nil {
			return err
		}
	}
	r.tr.end(replay)
	r.tr.end(root)
	return nil
}

// layerResult is one workload's traced pass.
type layerResult struct {
	tally
	TracedOps int                `json:"traced_ops"`
	TraceFile string             `json:"trace_file"`
	Spans     int                `json:"spans"`
	Metrics   map[string]float64 `json:"metrics"`
}

const (
	coldReps     = 3
	maxTracedOps = 10000
)

// timeFor calls fn until minDur has passed (at least 3 times) and
// returns the mean nanoseconds per call.
func timeFor(minDur time.Duration, fn func()) float64 {
	n := 0
	t0 := time.Now()
	for n < 3 || time.Since(t0) < minDur {
		fn()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// probeObs times the observation primitives the serving envelope calls
// on every execution, with a synthetic record.
func probeObs(m map[string]float64) {
	const n = 20000
	per := func(fn func()) float64 {
		var runs []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			for i := 0; i < n; i++ {
				fn()
			}
			runs = append(runs, float64(time.Since(t0).Nanoseconds())/n)
		}
		return medianFloat(runs)
	}
	entry := obs.NewStmtStore(64).Get("select 1")
	rec := obs.QueryObs{DurNs: 5000, Rows: 1, RowsScanned: 15, PredEvals: 21, Rollbacks: 12, PlanCached: true, PartitionCached: true, Kernel: true, Vectorized: true}
	m["obs.record_query_ns"] = per(func() { entry.RecordQuery(rec) })
	ring := obs.NewEventRing(1024)
	ev := obs.Event{SQL: "select 1", Executor: "ops", DurationNs: 5000, Rows: 1, RowsScanned: 15, PredEvals: 21}
	m["obs.event_ring_add_ns"] = per(func() { ring.Add(ev) })
	reg := obs.NewFlightRegistry()
	m["obs.flight_register_ns"] = per(func() { reg.Deregister(reg.Register("select 1", "ops", 0, obs.PhaseQueued)) })
}

// probeSiblings measures two sibling databases over the same table with
// the same statement, warm, one client: one with the recorder and the
// statement statistics off (what observation costs), one sharded (what
// the scatter-gather path costs against the flat one).
func probeSiblings(s *served, m map[string]float64, budget time.Duration) error {
	query := func(db *sqlts.DB) func() {
		return func() {
			if _, err := db.Query(s.sql); err != nil {
				panic(err) // the same statement just ran on the main DB
			}
		}
	}
	quiet, err := openDB(s.t)
	if err != nil {
		return err
	}
	quiet.SetFlightRecorder(false)
	quiet.SetStatementStatsCapacity(0)
	loud, err := openDB(s.t)
	if err != nil {
		return err
	}
	sharded, err := openDB(s.t)
	if err != nil {
		return err
	}
	sharded.SetShards(max(2, runtime.NumCPU()))
	dbs := []*sqlts.DB{loud, quiet, sharded}
	for _, db := range dbs {
		query(db)() // warm plan, partition, projections, masks
	}
	// One op on each in turn, so that a drift in machine speed hits all
	// three alike; medians over the turns.
	lat := make([][]int64, len(dbs))
	for begin := time.Now(); len(lat[0]) < 5 || time.Since(begin) < budget; {
		for i, db := range dbs {
			t0 := time.Now()
			query(db)()
			lat[i] = append(lat[i], time.Since(t0).Nanoseconds())
		}
	}
	loudNs, quietNs, shardNs := float64(medianInt(lat[0])), float64(medianInt(lat[1])), float64(medianInt(lat[2]))
	m["obs.tax_pct"] = 100 * (loudNs - quietNs) / loudNs
	m["shard.query_us"] = shardNs / 1e3
	m["shard.vs_flat_ratio"] = shardNs / loudNs
	m["sqlts.prepare_hit_us"] = timeFor(20*time.Millisecond, func() {
		if _, err := loud.Prepare(s.sql); err != nil {
			panic(err)
		}
	}) / 1e3
	return nil
}

// libraryCall runs the real operation k with a span around each library
// call, and points the replayer at the statement it used.
func libraryCall(inst batchInstance, k int, r *replayer, op, root int32) (res *sqlts.Result, execNs, queryNs int64, err error) {
	s := inst.base()
	sql := s.sql
	switch inst := inst.(type) {
	case *queryInstance:
		sql, _ = inst.statement(k)
	case *ingestInstance:
		insert, _ := inst.deal.next()
		id := r.tr.begin(op, root, "sqlts.exec", false)
		err = s.db.Exec(insert)
		execNs = r.tr.end(id).dur()
		if err != nil {
			return nil, execNs, 0, err
		}
	}
	r.sql = sql
	id := r.tr.begin(op, root, "sqlts.query", false)
	res, err = s.db.Query(sql)
	queryNs = r.tr.end(id).dur()
	if g, ok := inst.(*ingestInstance); ok && err == nil {
		g.last = res
	}
	return res, execNs, queryNs, err
}

// runLayers is the traced pass of one workload.
func runLayers(w *workload, in *inputs, cfg config) (*layerResult, *tracer, error) {
	created, err := w.setup(in)
	if err != nil {
		return nil, nil, err
	}
	defer created.close()
	if _, err := created.reference(); err != nil {
		return nil, nil, fmt.Errorf("reference result: %w", err)
	}
	if st, ok := created.(*streamInstance); ok {
		return runStreamLayers(w, st, in, cfg)
	}
	inst := created.(batchInstance)
	out := &layerResult{Metrics: map[string]float64{}}
	m := out.Metrics
	s := inst.base()
	budget := cfg.budget()

	// Untraced baseline, one client: what tracing is compared with. A
	// fixed op count, so the table state the traced ops start from does
	// not depend on the machine's speed.
	runtime.GC()
	base := runCounted(inst, 1, cfg.scaleOps(w.countedOps))
	out.Attempted += base.ops
	out.Failed += base.failed
	baseNs := float64(base.busy.Nanoseconds()) / float64(base.ops)

	tr := newTracer()
	r := newReplayer(tr, s.t, s.sql)
	reps := coldReps
	if cfg.quick {
		reps = 1
	}
	var allocs []float64
	for i := 0; i < reps; i++ {
		if err := r.coldReplay(int32(-1-i), coldStages); err != nil {
			return nil, nil, err
		}
		// Allocations of the search loop, outside any span: reading
		// MemStats stops the world.
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		if err := r.stage(stSearch); err != nil {
			return nil, nil, err
		}
		runtime.ReadMemStats(&b)
		allocs = append(allocs, float64(b.Mallocs-a.Mallocs))
	}
	m["engine.search_allocs_per_op"] = medianFloat(allocs)
	probeObs(m)

	// Traced operations, on a heap the cold replays' garbage has left.
	if err := inst.newRound(); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	path := paths[w.name]
	var libNs, envNs []int64
	var first engine.Stats // the first traced op's counts: the same op on every run
	planHits, partHits := 0, 0
	deadline := time.Now().Add(budget / 2)
	for k := 0; k < maxTracedOps && time.Now().Before(deadline); k++ {
		op := int32(k + 1)
		root := tr.begin(op, 0, "op", false)
		res, execNs, queryNs, err := libraryCall(inst, k, r, op, root)
		out.Attempted++
		if err != nil {
			tr.end(root)
			out.fail("op %d: %v", k, err)
			continue
		}
		replay := tr.begin(op, root, "replay", false)
		var stagesNs int64
		for _, name := range path {
			if err := r.run(op, replay, false, name); err != nil {
				return nil, nil, err
			}
			stagesNs += tr.spans[len(tr.spans)-1].dur()
		}
		tr.end(replay)
		tr.end(root)
		if out.TracedOps == 0 {
			first = r.stats
		}
		out.TracedOps++
		libNs = append(libNs, execNs+queryNs)
		envNs = append(envNs, execNs+queryNs-stagesNs)
		if res.PlanCached() {
			planHits++
		}
		if res.PartitionCached() {
			partHits++
		}
		// The replay must reproduce the library call exactly.
		if r.stats.PredEvals != res.Stats.PredEvals || r.stats.Matches != res.Stats.Matches || len(r.rows) != len(res.Rows) {
			out.fail("op %d: replay found %d matches in %d pred-evals, library %d in %d",
				k, r.stats.Matches, r.stats.PredEvals, res.Stats.Matches, res.Stats.PredEvals)
		}
		if res.PlanCached() != w.planHit || res.PartitionCached() != w.partHit {
			out.fail("op %d: plan cached %v, partition cached %v; this workload expects %v, %v",
				k, res.PlanCached(), res.PartitionCached(), w.planHit, w.partHit)
		}
	}
	if out.TracedOps == 0 {
		return nil, nil, fmt.Errorf("no traced operation completed")
	}
	if err := inst.check(); err != nil {
		out.fail("after the traced ops: %v", err)
	}

	// Sibling databases last: on ingest_many they would otherwise see
	// the table move under them.
	if err := probeSiblings(s, m, budget/10); err != nil {
		return nil, nil, err
	}

	layerUs := tr.layerTimes()
	for _, name := range coldStages {
		if name != stNaive { // the naive probe is there for its count
			m[name+"_us"] = layerUs(name)
		}
	}
	m["sqlts.query_us"] = layerUs("sqlts.query")
	m["sqlts.exec_us"] = layerUs("sqlts.exec")
	m["query.select_rows"] = tr.lastCount(stSelect, "rows")
	m["constraint.implication_checks"] = tr.lastCount(stMatrices, "implication_checks")
	m["core.avg_shift"] = r.tables.AvgShift()
	m["core.avg_next"] = r.tables.AvgNext()
	if rows := tr.lastCount(stMasks, "rows"); rows > 0 {
		m["pattern.mask_build_ns_per_row"] = m[stMasks+"_us"] * 1e3 / rows
	}
	m["engine.pred_evals"] = float64(first.PredEvals)
	m["engine.rollbacks"] = float64(first.Rollbacks)
	m["engine.matches"] = float64(first.Matches)
	m["engine.naive_pred_evals"] = float64(r.naive.PredEvals)
	if first.PredEvals > 0 {
		m["engine.ns_per_pred_eval"] = m[stSearch+"_us"] * 1e3 / float64(first.PredEvals)
	}
	if r.naive.PredEvals > 0 {
		m["engine.ops_savings_pct"] = 100 * (1 - float64(r.coldStats.PredEvals)/float64(r.naive.PredEvals))
	}
	if r.coldStats.PredEvals > r.naive.PredEvals {
		out.fail("replayed OPS search cost %d pred-evals, naive %d on the same input", r.coldStats.PredEvals, r.naive.PredEvals)
	}
	m["shard.refresh_shards_rebuilt"] = tr.lastCount(stShardRefresh, "shards_rebuilt")
	lib := float64(medianInt(libNs))
	m["sqlts.envelope_us"] = float64(medianInt(envNs)) / 1e3
	m["sqlts.envelope_pct"] = 100 * float64(medianInt(envNs)) / lib
	m["sqlts.plan_cache_hit_pct"] = 100 * float64(planHits) / float64(out.TracedOps)
	m["sqlts.partition_cache_hit_pct"] = 100 * float64(partHits) / float64(out.TracedOps)
	var tracedSum int64
	for _, ns := range libNs {
		tracedSum += ns
	}
	m["sqlts.tracing_overhead_pct"] = 100 * (float64(tracedSum)/float64(len(libNs)) - baseNs) / baseNs
	return out, tr, nil
}

// runStreamLayers is the traced pass of stream_many: the same tuples
// through sqlts.Stream and through one engine.Streamer per symbol with
// the kernel attached the way Stream attaches it.
func runStreamLayers(w *workload, inst *streamInstance, in *inputs, cfg config) (*layerResult, *tracer, error) {
	out := &layerResult{Metrics: map[string]float64{}}
	m := out.Metrics
	budget := cfg.budget()

	base := runCounted(inst, 1, cfg.scaleOps(w.countedOps))
	out.Attempted += base.ops
	out.Failed += base.failed
	baseNs := float64(base.busy.Nanoseconds()) / float64(base.ops)
	if err := inst.newRound(); err != nil {
		return nil, nil, err
	}

	// The compile stages are the only batch stages a stream pays.
	tr := newTracer()
	r := newReplayer(tr, storage.NewTable(in.table, quoteSchema(true)), in.sql)
	reps := coldReps
	if cfg.quick {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if err := r.coldReplay(int32(-1-i), streamColdStages); err != nil {
			return nil, nil, err
		}
	}
	probeObs(m)
	pat := r.compiled.Pattern
	streamTables := core.ComputeForStream(pat)

	symbols := len(in.rows) / 100
	var (
		st         *sqlts.Stream
		matches    int
		engMatches int
		streamers  []*engine.Streamer
		planHits   int
		passes     int
		sqltsNs    int64
		engineNs   int64
		libNs      int64
		rows       int64
	)
	deadline := time.Now().Add(budget / 2)
	for k := 0; k < maxTracedOps && (time.Now().Before(deadline) || k%streamBatches != 0); k++ {
		b := k % streamBatches
		op := int32(k + 1)
		root := tr.begin(op, 0, "op", false)
		batch := inst.vals[b*streamBatch : (b+1)*streamBatch]
		if b == 0 {
			id := tr.begin(op, root, "sqlts.stream_open", false)
			q, err := inst.db.Prepare(in.sql)
			if err == nil {
				st, err = q.OpenStream(sqlts.StreamOptions{}, func(storage.Row) error { matches++; return nil })
			}
			libNs += tr.end(id).dur()
			if err != nil {
				return nil, nil, err
			}
			if q.PlanCached() {
				planHits++
			}
			passes++
			streamers = make([]*engine.Streamer, symbols)
		}
		id := tr.begin(op, root, "sqlts.stream_push", false)
		for _, v := range batch {
			if err := st.Push(v...); err != nil {
				return nil, nil, err
			}
		}
		d := tr.end(id).dur()
		sqltsNs += d
		libNs += d
		if b == streamBatches-1 {
			id := tr.begin(op, root, "sqlts.stream_close", false)
			err := st.Close()
			libNs += tr.end(id).dur()
			if err != nil {
				return nil, nil, err
			}
		}

		replay := tr.begin(op, root, "replay", false)
		id = tr.begin(op, replay, "engine.stream_push", false)
		for i, v := range batch {
			c := (b*streamBatch + i) % symbols
			if streamers[c] == nil {
				streamers[c] = engine.NewStreamer(pat, engine.StreamConfig{
					Policy: engine.SkipPastLastRow, Tables: streamTables, Vectorize: true, ReuseSpans: true,
				}, func(engine.Match) { engMatches++ })
				streamers[c].UseKernel(r.kernel)
			}
			if err := streamers[c].Push(v); err != nil {
				return nil, nil, err
			}
		}
		engineNs += tr.end(id).dur()
		if b == streamBatches-1 {
			id := tr.begin(op, replay, "engine.stream_flush", false)
			var total engine.Stats
			for _, s := range streamers {
				s.Flush()
				total.Add(s.Stats())
			}
			tr.end(id).count("pred_evals", total.PredEvals)
			// The replay must reproduce the library's pass exactly.
			if total.PredEvals != st.Stats().PredEvals || engMatches != matches || matches != inst.ref.Matches {
				out.fail("pass %d: replay found %d matches in %d pred-evals, library %d in %d, reference %d",
					passes, engMatches, total.PredEvals, matches, st.Stats().PredEvals, inst.ref.Matches)
			}
			m["engine.pred_evals"] = float64(total.PredEvals)
			m["engine.rollbacks"] = float64(total.Rollbacks)
			m["engine.matches"] = float64(total.Matches)
			matches, engMatches = 0, 0
		}
		tr.end(replay)
		tr.end(root)
		rows += streamBatch
		out.TracedOps++
		out.Attempted++
	}

	layerUs := tr.layerTimes()
	for _, name := range streamColdStages {
		m[name+"_us"] = layerUs(name)
	}
	m["constraint.implication_checks"] = tr.lastCount(stMatrices, "implication_checks")
	m["core.avg_shift"] = streamTables.AvgShift()
	m["core.avg_next"] = streamTables.AvgNext()
	m["engine.naive_pred_evals"] = float64(inst.ref.NaiveEvals)
	m["engine.ops_savings_pct"] = 100 * (1 - float64(inst.ref.PredEvals)/float64(inst.ref.NaiveEvals))
	m["sqlts.stream_push_ns_per_row"] = float64(sqltsNs) / float64(rows)
	m["engine.stream_push_ns_per_row"] = float64(engineNs) / float64(rows)
	m["sqlts.stream_envelope_pct"] = 100 * (1 - float64(engineNs)/float64(sqltsNs))
	m["sqlts.plan_cache_hit_pct"] = 100 * float64(planHits) / float64(passes)
	m["sqlts.prepare_hit_us"] = timeFor(20*time.Millisecond, func() {
		if _, err := inst.db.Prepare(in.sql); err != nil {
			panic(err)
		}
	}) / 1e3
	m["sqlts.tracing_overhead_pct"] = 100 * (float64(libNs)/float64(out.TracedOps) - baseNs) / baseNs
	return out, tr, nil
}
