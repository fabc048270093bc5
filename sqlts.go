// Package sqlts is a sequence-database engine implementing SQL-TS, the
// sequential-pattern query language of Sadri & Zaniolo, "Optimization of
// Sequence Queries in Database Systems" (PODS 2001), together with the
// paper's OPS optimizer — a generalization of Knuth–Morris–Pratt string
// matching to patterns whose elements are arbitrary predicate
// conjunctions, including one-or-more (star) repetitions.
//
// Quick start:
//
//	db := sqlts.New()
//	db.MustExec(`CREATE TABLE quote (name VARCHAR(8), date DATE, price REAL)`)
//	db.MustExec(`INSERT INTO quote VALUES ('INTC','1999-01-25',60), ...`)
//	res, err := db.Query(`
//	    SELECT X.name FROM quote
//	      CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
//	    WHERE Y.price > 1.15*X.price AND Z.price < 0.80*Y.price`)
//
// Queries compile through the full pipeline: parse → semantic analysis →
// per-element predicate systems → GSW implication engine → θ/φ matrices →
// shift/next tables → OPS execution. The compiled artifact is an
// immutable Plan shared by every execution of the same SQL: DB keeps an
// LRU plan cache keyed by normalized statement text and a partition
// cache keyed by (table, clusterBy, sequenceBy) validated against the
// table's data version, so a warm `db.Query` pays neither the compile
// pipeline nor the cluster sort. Prepare exposes the compiled plan
// (Explain, executor selection, runtime statistics) for experimentation.
package sqlts

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/engine"
	"sqlts/internal/fault"
	"sqlts/internal/obs"
	"sqlts/internal/pattern"
	"sqlts/internal/query"
	"sqlts/internal/storage"
)

// faultExecCluster is the serving path's fault-injection site (see
// internal/fault and the engine.* sites): a lane fires it before each
// cluster the executor's per-cluster run loop searches, at any worker
// count. An armed fault point keeps every run on that loop.
var faultExecCluster = fault.New("sqlts.execute.cluster")

// DB is an in-memory sequence database: a set of named tables plus
// per-table metadata (positive-domain column declarations) and the
// serving caches (compiled plans, clustered partitions). A DB is safe
// for concurrent use by multiple goroutines, including Insert-while-
// query (queries observe a consistent snapshot of each table).
type DB struct {
	mu       sync.RWMutex
	tables   map[string]*storage.Table
	positive map[string][]string // table → positive-domain columns

	// catalog is bumped by every schema-affecting change (CREATE TABLE,
	// RegisterTable, DeclarePositive); cached plans compiled under an
	// older catalog version are recompiled on next use. Row inserts bump
	// per-table data versions instead (see storage.Table.Version).
	catalog atomic.Uint64

	cacheMu  sync.Mutex
	plans    *planCache
	patterns map[patternKey]*patternArtifact // the cached plans' patterns (serving.go)
	parts    *partitionCache

	metrics *dbMetrics

	// Statement introspection (introspect.go): per-statement stats keyed
	// like the plan cache, and the retained slow-query log.
	stmts *obs.StmtStore
	slow  *obs.Ring[SlowQueryRecord]

	// slowNs is the slow-query threshold in nanoseconds (0 = off), read by
	// every execution.
	slowNs atomic.Int64

	// flight is the query flight recorder (flight.go): the active-query
	// registry behind /debug/queries and remote kill, plus the wide-event
	// sink/ring.
	flight flightState

	// admit is the concurrent-query admission gate (admission.go);
	// unlimited until SetMaxConcurrentQueries.
	admit admission
}

// New creates an empty database.
func New() *DB {
	db := &DB{
		tables:   map[string]*storage.Table{},
		positive: map[string][]string{},
		patterns: map[patternKey]*patternArtifact{},
		parts:    newPartitionCache(defaultPartitionCacheCapacity),
		metrics:  newDBMetrics(),
		stmts:    obs.NewStmtStore(defaultStatementCapacity),
		slow:     obs.NewRing[SlowQueryRecord](defaultSlowLogCapacity),
	}
	db.plans = newPlanCache(defaultPlanCacheCapacity, db.holdPattern, db.forgetKernel)
	db.flight.flights = obs.NewFlightRegistry()
	db.flight.ring = obs.NewEventRing(defaultEventRingCapacity)
	return db
}

// Exec runs one or more semicolon-separated DDL/DML statements
// (CREATE TABLE, INSERT INTO ... VALUES).
func (db *DB) Exec(sql string) error {
	stmts, err := query.ParseScript(sql)
	if err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, st := range stmts {
		switch s := st.(type) {
		case *query.CreateTableStmt:
			if err := db.createTable(s); err != nil {
				return err
			}
		case *query.InsertStmt:
			if err := db.insert(s); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sqlts: Exec only accepts CREATE TABLE and INSERT; use Query for SELECT")
		}
	}
	return nil
}

// MustExec is Exec that panics on error; for examples and tests.
func (db *DB) MustExec(sql string) {
	if err := db.Exec(sql); err != nil {
		panic(err)
	}
}

func (db *DB) createTable(s *query.CreateTableStmt) error {
	key := strings.ToLower(s.Name)
	if _, dup := db.tables[key]; dup {
		return fmt.Errorf("sqlts: table %q already exists", s.Name)
	}
	cols := make([]storage.Column, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = storage.Column{Name: c.Name, Type: c.Type}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		return err
	}
	db.tables[key] = storage.NewTable(s.Name, schema)
	db.catalog.Add(1)
	return nil
}

// insert applies one INSERT statement all-or-nothing: every row is
// evaluated first and the batch committed with a single version bump, so
// a failing statement leaves the table untouched and a succeeding one
// costs the partition cache one refresh however many rows it carries.
func (db *DB) insert(s *query.InsertStmt) error {
	t, ok := db.tables[strings.ToLower(s.Table)]
	if !ok {
		return fmt.Errorf("sqlts: no table %q", s.Table)
	}
	rows := make([]storage.Row, len(s.Rows))
	for ri, row := range s.Rows {
		vals := make(storage.Row, len(row))
		for i, e := range row {
			v, err := query.EvalConst(e)
			if err != nil {
				return fmt.Errorf("sqlts: INSERT INTO %s: %w", s.Table, err)
			}
			// Re-parse strings against date columns for convenience.
			if i < t.Schema.Len() && t.Schema.Columns[i].Type == storage.TypeDate && v.Type() == storage.TypeString {
				d, err := storage.ParseValue(v.Str(), storage.TypeDate)
				if err != nil {
					return fmt.Errorf("sqlts: INSERT INTO %s: %w", s.Table, err)
				}
				v = d
			}
			vals[i] = v
		}
		rows[ri] = vals
	}
	if err := t.InsertBatch(rows); err != nil {
		return fmt.Errorf("sqlts: INSERT INTO %s: %w", s.Table, err)
	}
	return nil
}

// RegisterTable adds (or replaces) a table built programmatically.
// Replacing a table invalidates every cached plan and partition that
// referenced the old one.
func (db *DB) RegisterTable(t *storage.Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[strings.ToLower(t.Name)] = t
	db.catalog.Add(1)
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *storage.Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[strings.ToLower(name)]
}

// TableNames lists the registered tables, sorted.
func (db *DB) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]string, 0, len(db.tables))
	for k := range db.tables {
		out = append(out, db.tables[k].Name)
	}
	sort.Strings(out)
	return out
}

// LoadCSV reads CSV data (header row required) into the named table: a
// new table with the given schema when none exists, otherwise appended
// to the existing one. The load is all-or-nothing either way — rows are
// staged fully before a single batch commit (one version bump), so a
// mid-file parse error leaves the table's contents and data version
// untouched and never invalidates warm partition caches.
func (db *DB) LoadCSV(name string, schema *storage.Schema, r io.Reader) error {
	if t := db.Table(name); t != nil {
		rows, err := storage.ReadCSVRows(t.Schema, r)
		if err != nil {
			return fmt.Errorf("sqlts: csv %s: %w", name, err)
		}
		if err := t.InsertBatch(rows); err != nil {
			return fmt.Errorf("sqlts: csv %s: %w", name, err)
		}
		return nil
	}
	t, err := storage.ReadCSV(name, schema, r)
	if err != nil {
		return err
	}
	db.RegisterTable(t)
	return nil
}

// DeclarePositive declares that the named numeric columns of a table hold
// strictly positive values. The declaration enables the §6 ratio
// transform, which the optimizer needs to reason about percentage
// conditions such as price < 0.98 * previous.price. Declarations change
// what the optimizer may conclude, so they invalidate cached plans.
func (db *DB) DeclarePositive(table string, cols ...string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[strings.ToLower(table)]
	if !ok {
		return fmt.Errorf("sqlts: no table %q", table)
	}
	for _, c := range cols {
		i, ok := t.Schema.ColumnIndex(c)
		if !ok {
			return fmt.Errorf("sqlts: no column %q in table %s", c, table)
		}
		if !t.Schema.Columns[i].Type.Numeric() {
			return fmt.Errorf("sqlts: column %q is not numeric", c)
		}
	}
	key := strings.ToLower(table)
	db.positive[key] = append(db.positive[key], cols...)
	db.catalog.Add(1)
	return nil
}

// ExecutorKind selects the runtime algorithm for a prepared query.
type ExecutorKind uint8

// Executor kinds: OPS, the paper's optimized pattern search and the
// default, and naive search, the baseline of its experiments (§7).
const (
	OPSExec ExecutorKind = iota
	NaiveExec
)

// String names the executor kind.
func (k ExecutorKind) String() string {
	switch k {
	case OPSExec:
		return "ops"
	case NaiveExec:
		return "naive"
	default:
		return fmt.Sprintf("ExecutorKind(%d)", uint8(k))
	}
}

// RunOptions configure one execution of a prepared query.
type RunOptions struct {
	Executor ExecutorKind
	// Overlap reports overlapping occurrences (engine.SkipToNextRow)
	// instead of the paper's default left-maximal semantics.
	Overlap bool
	// MaxWorkers is the number of goroutines that search clusters. 0, the
	// default, is elastic: the calling goroutine searches, and a run over
	// enough clusters and rows to repay it borrows one helper goroutine
	// for every core that no other search of this process is using,
	// giving each back at a chunk boundary once the process has more
	// searches than cores. 1 searches serially on the calling goroutine;
	// N > 1 shares the clusters among exactly N goroutines, the caller's
	// included, whatever else runs. Results are identical whatever the
	// count, including row order.
	MaxWorkers int
	// NoCache bypasses the partition cache for this run: the cluster
	// sort always re-runs and the result is not stored. (Plan caching
	// happens at Prepare time; disable it with SetPlanCacheCapacity(0).)
	// For cold-vs-warm measurement and differential tests; results are
	// identical either way.
	NoCache bool

	// Context, when non-nil, cancels the run cooperatively: executors
	// consult it at amortized checkpoints (every 1024 predicate
	// evaluations) and before every chunk of clusters a lane searches —
	// and every cluster, on the per-cluster loop. A canceled run returns
	// ErrCanceled (or ErrDeadlineExceeded) and no partial Result.
	Context context.Context
	// Deadline bounds this run's wall-clock time, layered on top of
	// Context (0 = none).
	Deadline time.Duration
	// MaxMatches aborts the run with ErrBudgetExceeded once more than
	// this many matches have been found (0 = unlimited). Matches are
	// added per cluster and the bound is checked where Context is, and
	// once more when the search is over: a run past it never returns a
	// result, however little further it searched.
	MaxMatches int64
	// MaxRowsScanned rejects the run with ErrBudgetExceeded when its
	// input (the table snapshot, or the clustered partition) exceeds
	// this many rows (0 = unlimited). Checked before the search starts.
	MaxRowsScanned int64
}

// Result is the outcome of a query execution.
type Result struct {
	// Columns and Types are the output columns' names and types. They
	// are the plan's own, shared by every result of the plan, and must
	// not be written; their capacity is their length, so an append
	// copies.
	Columns []string
	Types   []storage.Type
	Rows    []storage.Row
	// Stats aggregates runtime counters across all clusters.
	Stats engine.Stats

	// bounds records every match in cluster order as m+2 numbers: its
	// cluster, its first row, and each element's counter — paper §5's
	// count[k], the rows elements 1..k took — from which Matches builds
	// the intervals. m is the pattern's length.
	bounds []int32
	m      int32

	partition  partitionOutcome
	planCached bool
}

// PlanCached reports whether the execution served a plan from the plan
// cache (no parse/analyze/optimize work was done for it).
func (r *Result) PlanCached() bool { return r.planCached }

// PartitionCached reports whether the execution reused a cached cluster
// partition (no re-sort of the table). A partition refreshed after an
// insert re-sorted the clusters the new rows landed in, so it is not a
// hit; PartitionOutcome tells the two misses apart.
func (r *Result) PartitionCached() bool { return r.partition.cached }

// PartitionOutcome names how the execution came by its cluster partition:
// "cached", "built", or "refreshed (k of n clusters)" when the stale
// cached partition was brought up to date by re-sorting or adding k of
// its n clusters. It is empty for an execution that read no partition: a
// plain SELECT reads the table's snapshot.
func (r *Result) PartitionOutcome() string { return r.partition.String() }

// ClusterMatches are the matches found within one cluster.
type ClusterMatches struct {
	// Cluster is the 0-based cluster index in first-appearance order.
	Cluster int
	Matches []engine.Match
}

// Matches returns the raw match intervals per cluster, for tooling: the
// clusters with a match in cluster order, nil when there are none. They
// are built on each call from the counters the run recorded of each
// match: element k covers rows count[k-1] .. count[k]-1 from the match's
// first row (paper §5), as the executors derive its spans.
func (r *Result) Matches() []ClusterMatches {
	m, w := int(r.m), int(r.m)+2
	n := len(r.bounds) / w
	if n == 0 {
		return nil
	}
	var out []ClusterMatches
	matches, spans := make([]engine.Match, n), make([]pattern.Span, n*m)
	first := 0 // the current cluster's first match
	for i := range matches {
		rec, sp := r.bounds[i*w:(i+1)*w], spans[i*m:(i+1)*m:(i+1)*m]
		start, prev := int(rec[1]), 0
		for k := range sp {
			sp[k] = pattern.Span{Start: start + prev, End: start + int(rec[2+k]) - 1, Set: true}
			prev = int(rec[2+k])
		}
		matches[i] = engine.Match{Start: start, End: start + prev - 1, Spans: sp}
		if c := int(rec[0]); len(out) == 0 || out[len(out)-1].Cluster != c {
			out = append(out, ClusterMatches{Cluster: c})
			first = i
		}
		out[len(out)-1].Matches = matches[first : i+1 : i+1]
	}
	return out
}

// explainMode selects what Run produces for EXPLAIN statements.
type explainMode uint8

const (
	explainNone    explainMode = iota
	explainPlan                // EXPLAIN: render the plan, don't execute
	explainAnalyze             // EXPLAIN ANALYZE: execute and annotate
)

// Plan is the immutable compiled form of one SQL-TS statement: the
// analyzed select, and the compiled pattern — predicate systems, the θ/φ
// matrices distilled into shift/next tables, and the predicate kernel —
// which it shares with every cached plan of the same FROM … WHERE (see
// patternArtifact). Every field is read-only after compilation but the
// run bit and what its runs keep — the partition slot, the run control and
// the statement entry — so one Plan is shared by all goroutines executing
// the same SQL concurrently; all per-run mutable state lives in the run
// control and in the lanes and executors a run takes from its pattern or
// builds.
type Plan struct {
	sql      string // the text compiled — the plan cache's second key for it
	key      string // normalized SQL — the plan-cache and statement-stats key
	compiled *query.Compiled
	explain  explainMode
	// partKey is the partition cache's key for the plan's clustering, ""
	// for a plain SELECT, and part the key's slot the plan's last run that
	// looked it up found, through which the next one reaches the key's
	// entry (DB.cachedPartition).
	partKey string
	part    atomic.Pointer[partSlot]

	// art is the plan's compiled pattern (nil for a plain SELECT); tables
	// and kernel are art's, kept here for the run path. patternCached says
	// the compile found art shared by a cached plan instead of building it.
	art           *patternArtifact
	tables        *core.Tables
	kernel        *pattern.Kernel
	patternCached bool

	// catalogVersion is the DB catalog version the plan was compiled
	// under; the plan cache revalidates it on every hit.
	catalogVersion uint64
	// The phases the plan's compile timed itself, parse and analyze: when
	// each started and how long it took, and the pattern's elements and
	// predicates as analyze counted them. The compile records nothing
	// else; the trace (compileTrace) is built from these and the pattern's
	// spans when it is first read, and is read-only since: every Query the
	// plan serves shares it.
	parseAt, analyzeAt   time.Time
	parseDur, analyzeDur time.Duration
	elements, predicates int
	traceOnce            sync.Once
	trace                *obs.Trace

	// stmt keeps the statement-stats entry of key, which every run of the
	// plan records into, found again only once a Reset has dropped it or
	// while it is the store's overflow entry (obs.StmtRef).
	stmt obs.StmtRef
}

// patternArtifact is what a statement compiles from its pattern alone
// (paper §4–5: θ, φ, shift and next are functions of the pattern): the
// analysed pattern, its shift/next tables — which batch runs and streams
// both read — and its kernel. It is keyed by the catalog
// version and the statement's FROM … end tokens (query.SelectStmt's
// PatternKey), so statements that differ only in their SELECT list, an
// alias or EXPLAIN share one — and with it the WHERE clause's analysis
// and one set of partition memos. It lives as long as a cached plan holds
// it (see DB.holdPattern).
type patternArtifact struct {
	key patternKey
	// analysis is the analysed statement that built the artifact; its
	// Pattern is the artifact's, and an analysis of the same key starts
	// from it (query.AnalyzeOptions.Shared).
	analysis *query.Compiled
	tables   *core.Tables
	kernel   *pattern.Kernel
	// scan is the pure loop's scan of the pattern's default OPS executor,
	// which a partition memo books its blocks under (engine.Booking).
	scan engine.Scan
	// matches is how many matches the last successful run of a plan over
	// the artifact found, each one output row and one match record, which
	// the next run's lanes reserve their buffers from: matches depend on
	// FROM … WHERE alone, so a new plan over a cached pattern starts from
	// its pattern's last result. It is advisory — a run grows past it like
	// any other (engine.Block.Reserve) — and a run that finds it unchanged
	// writes nothing.
	matches atomic.Int64
	// runs keeps the batch runs of its plans between runs, each with its
	// lanes and their executors, which depend on the pattern and the run's
	// executorKey alone; what a kept lane holds is scratch, which no result
	// references (see lane).
	runs runPool

	// spans are the matrices, shift/next and kernel spans of the compile
	// that built the artifact; cachedSpans are their copies annotated
	// pattern=cached, made for the first plan that finds it.
	spans       [3]*obs.Span
	cachedOnce  sync.Once
	cachedSpans [3]*obs.Span

	// refs counts the cached plans holding the artifact. It changes under
	// db.cacheMu; a partition keeps a memo only for an artifact with refs.
	refs atomic.Int32
}

// patternKey identifies a pattern artifact: equal keys analyse to equal
// patterns (see query.SelectStmt.PatternKey). An empty tokens shares
// nothing.
type patternKey struct {
	catalog uint64
	tokens  string
}

// hitSpans returns the artifact's compile spans as a plan that found it
// lists them.
func (a *patternArtifact) hitSpans() []*obs.Span {
	a.cachedOnce.Do(func() {
		for i, s := range a.spans {
			if s == nil {
				continue
			}
			c := *s
			c.Annots = append(s.Annots[:len(s.Annots):len(s.Annots)], obs.Annot{Key: "pattern", Value: "cached"})
			a.cachedSpans[i] = &c
		}
	})
	return a.cachedSpans[:]
}

// record is the length of one match's record in a result (Result.bounds).
func (a *patternArtifact) record() int { return a.analysis.Pattern.Len() + 2 }

// masks returns part's selection bitmasks for the plan's pattern, built
// by the first run of a plan of the pattern over part and memoized since:
// none when the plan's executors interpret (vectorized).
func (p *Plan) masks(part *partitionEntry) engine.MaskBlocks {
	if !p.vectorized() {
		return engine.MaskBlocks{}
	}
	return part.memoFor(p.art)
}

// vectorized says the plan's kernel compiled an element to selection
// masks, so its runs probe masks.
func (p *Plan) vectorized() bool { return p.kernel != nil && p.kernel.CompiledElems() > 0 }

// SQL returns the statement text the plan was compiled from.
func (p *Plan) SQL() string { return p.sql }

// Query is a prepared SQL-TS statement: a handle on an immutable shared
// Plan. Runs leave nothing behind in it — what an execution did is its
// obs.Event — so a Query is safe for concurrent use. After a catalog
// change its runs take the plan its text has now (Query.current).
type Query struct {
	db         *DB
	plan       *Plan
	planCached bool
}

// Prepare parses, analyzes and optimizes a SELECT or EXPLAIN [ANALYZE]
// SELECT statement. Repeated Prepares of the same (whitespace-
// normalized) text are served from the DB's plan cache and skip the
// entire compile pipeline — the exact text of a cached plan without even
// being normalized; the cache revalidates against the catalog version, so
// DDL and DeclarePositive force recompilation. A new text whose FROM …
// WHERE a cached plan shares parses and analyses its SELECT list only.
func (db *DB) Prepare(sql string) (*Query, error) {
	p, key := db.lookupPlan(sql)
	if p != nil {
		return &Query{db: db, plan: p, planCached: true}, nil
	}
	parseAt := time.Now()
	sel, mode, hit, err := db.parse(sql)
	parseDur := time.Since(parseAt)
	if err != nil {
		return nil, err
	}
	plan, err := db.compilePlan(sel, hit, sql)
	if err != nil {
		return nil, err
	}
	plan.explain = mode
	plan.key = key
	plan.parseAt, plan.parseDur = parseAt, parseDur
	db.storePlan(key, plan)
	return &Query{db: db, plan: plan}, nil
}

// parse parses a SELECT or EXPLAIN [ANALYZE] SELECT statement. Its
// tokens from FROM on are looked up in the pattern map under the current
// catalog version before they are parsed: on a hit the statement takes
// the clauses of the artifact's statement, and hit is the artifact.
func (db *DB) parse(sql string) (sel *query.SelectStmt, mode explainMode, hit *patternArtifact, err error) {
	catalog := db.catalog.Load()
	st, err := query.ParseShared(sql, func(key []byte) *query.SelectStmt {
		if hit = db.sharedPattern(catalog, key); hit != nil {
			return hit.analysis.Stmt
		}
		return nil
	})
	if err != nil {
		return nil, 0, nil, err
	}
	sel, ok := st.(*query.SelectStmt)
	if !ok {
		ex, isExplain := st.(*query.ExplainStmt)
		if !isExplain {
			return nil, 0, nil, fmt.Errorf("sqlts: Prepare expects a SELECT statement")
		}
		sel, mode = ex.Sel, explainPlan
		if ex.Analyze {
			mode = explainAnalyze
		}
	}
	return sel, mode, hit, nil
}

// compilePlan runs semantic analysis and, unless hit — the artifact
// parse found for the statement's pattern — is of the catalog version
// the compile reads, the OPS compile-time pipeline, timing each phase. A
// statement whose pattern is cached analyses its SELECT list only. A hit
// of another catalog version is a miss: sel is a whole statement either
// way.
func (db *DB) compilePlan(sel *query.SelectStmt, hit *patternArtifact, sql string) (*Plan, error) {
	// The catalog version is read with the schema it stamps: DDL landing
	// after this compiles a plan that is stale on its next lookup.
	db.mu.RLock()
	t := db.tables[strings.ToLower(sel.Table)]
	positive := append([]string(nil), db.positive[strings.ToLower(sel.Table)]...)
	catalog := db.catalog.Load()
	db.mu.RUnlock()
	if t == nil {
		return nil, fmt.Errorf("sqlts: no table %q", sel.Table)
	}
	if hit != nil && hit.key.catalog != catalog {
		hit = nil
	}
	opts := query.AnalyzeOptions{PositiveColumns: positive}
	if hit != nil {
		opts.Shared = hit.analysis
	}
	analyzeAt := time.Now()
	compiled, err := query.Analyze(sel, t.Schema, opts)
	if err != nil {
		return nil, err
	}
	plan := &Plan{sql: sql, compiled: compiled, catalogVersion: catalog, analyzeAt: analyzeAt}
	if p := compiled.Pattern; p != nil {
		plan.elements = p.Len()
		for i := range p.Elems {
			for _, d := range p.Elems[i].Sys.Ds {
				plan.predicates += d.Len()
			}
			plan.predicates += len(p.Elems[i].CrossConds)
		}
	}
	plan.analyzeDur = time.Since(analyzeAt)
	if compiled.Pattern != nil {
		a := hit
		if a != nil {
			plan.patternCached = true
		} else {
			a = db.compilePattern(patternKey{catalog: catalog, tokens: sel.PatternKey}, compiled)
		}
		plan.art, plan.tables, plan.kernel = a, a.tables, a.kernel
		plan.partKey = partitionKey(t.Name, compiled.ClusterBy, compiled.SequenceBy)
	}
	return plan, nil
}

// compilePattern builds the artifact of an analysed pattern statement:
// θ/φ matrices, shift/next tables and kernel, one span each, which the
// trace of every plan over the artifact lists.
func (db *DB) compilePattern(key patternKey, analysis *query.Compiled) *patternArtifact {
	p := analysis.Pattern
	a := &patternArtifact{key: key, analysis: analysis}
	q0 := constraint.Queries()
	sp := obs.StartSpan("matrices")
	m := core.ComputeMatrices(p)
	sp.Annotate("dim", fmt.Sprintf("%dx%d", p.Len(), p.Len())).
		Annotate("implication-checks", constraint.Queries()-q0).
		End()
	a.spans[0] = sp
	sp = obs.StartSpan("shift/next")
	a.tables = core.TablesFrom(p, m)
	sp.Annotate("avg-shift", fmt.Sprintf("%.2f", a.tables.AvgShift())).
		Annotate("avg-next", fmt.Sprintf("%.2f", a.tables.AvgNext())).
		End()
	a.spans[1] = sp
	sp = obs.StartSpan("kernel")
	a.kernel = p.CompileKernel()
	sp.Annotate("compiled-elements", a.kernel.CompiledElems()).
		Annotate("fallback-elements", a.kernel.FallbackElems()).
		End()
	a.spans[2] = sp
	a.scan = engine.NewScan(a.kernel, a.tables)
	db.metrics.kernelCompiled.Add(int64(a.kernel.CompiledElems()))
	db.metrics.kernelFallback.Add(int64(a.kernel.FallbackElems()))
	return a
}

// Trace returns the compile-phase spans of the query's plan (parse,
// analyze, matrices, shift/next, kernel), timed when the plan was
// compiled. The trace belongs to the shared Plan and is read-only: a
// cache-hit Prepare returns the same one, and running the query adds
// nothing to it — an execution's record is its obs.Event.
func (q *Query) Trace() *obs.Trace { return q.plan.compileTrace() }

// compileTrace returns the plan's compile trace, built on its first read
// from the phases the compile timed: parse, analyze (annotated with the
// pattern's elements and predicates), then the pattern's matrices,
// shift/next and kernel spans, annotated pattern=cached when the plan
// found the pattern shared.
func (p *Plan) compileTrace() *obs.Trace {
	p.traceOnce.Do(func() {
		tr := obs.NewTrace()
		analyze := &obs.Span{Name: "analyze", Start: p.analyzeAt, Duration: p.analyzeDur}
		if p.compiled.Pattern != nil {
			analyze.Annotate("elements", p.elements).Annotate("predicates", p.predicates)
		}
		tr.Add(&obs.Span{Name: "parse", Start: p.parseAt, Duration: p.parseDur}, analyze)
		switch {
		case p.patternCached:
			tr.Add(p.art.hitSpans()...)
		case p.art != nil:
			tr.Add(p.art.spans[:]...)
		}
		p.trace = tr
	})
	return p.trace
}

// PlanCached reports whether this Query was served a cached plan.
func (q *Query) PlanCached() bool { return q.planCached }

// Query prepares and runs a SELECT with default options. EXPLAIN
// [ANALYZE] statements are also accepted and return the rendered plan
// as a one-column result. Repeated calls with the same statement text
// hit the plan cache (and, over an unchanged table, the partition
// cache), which makes this the intended hot serving entry point.
func (db *DB) Query(sql string) (*Result, error) {
	q, err := db.Prepare(sql)
	if err != nil {
		db.metrics.queryErrors.Inc()
		return nil, err
	}
	return q.Run()
}

// QueryContext is Query under a context: the run is admitted, executed
// and canceled cooperatively per ctx. See RunOptions.Context for the
// cancellation semantics and docs/ROBUSTNESS.md for the error taxonomy.
func (db *DB) QueryContext(ctx context.Context, sql string) (*Result, error) {
	q, err := db.Prepare(sql)
	if err != nil {
		db.metrics.queryErrors.Inc()
		return nil, err
	}
	return q.RunContext(ctx)
}

// RunContext executes the prepared query under a context with otherwise
// default options.
func (q *Query) RunContext(ctx context.Context) (*Result, error) {
	return q.RunWith(RunOptions{Context: ctx})
}

// Pattern exposes the compiled pattern (nil for plain SELECTs).
func (q *Query) Pattern() *pattern.Pattern { return q.plan.compiled.Pattern }

// Tables exposes the optimizer tables (nil for plain SELECTs).
func (q *Query) Tables() *core.Tables { return q.plan.tables }

// Explain renders the compiled plan: the pattern, its predicate systems,
// and the optimizer matrices and arrays.
func (q *Query) Explain() string { return q.explain(OPSExec.String()) }

// explain is Explain with the search loop the named executor (an
// ExecutorKind's String, an event's Executor) takes.
func (q *Query) explain(executor string) string {
	var b strings.Builder
	if q.plan.compiled.Pattern == nil {
		b.WriteString("plain relational scan (no sequence pattern)\n")
		return b.String()
	}
	p := q.plan.compiled.Pattern
	kernel := q.plan.kernel
	fmt.Fprintf(&b, "pattern %s over %s\n", p, q.plan.compiled.Table)
	if len(q.plan.compiled.ClusterBy) > 0 {
		fmt.Fprintf(&b, "cluster by %s\n", strings.Join(q.plan.compiled.ClusterBy, ", "))
	}
	if len(q.plan.compiled.SequenceBy) > 0 {
		fmt.Fprintf(&b, "sequence by %s\n", strings.Join(q.plan.compiled.SequenceBy, ", "))
	}
	for i, e := range p.Elems {
		star := " "
		if e.Star {
			star = "*"
		}
		fmt.Fprintf(&b, "  %s%-4s %s", star, e.Name, e.Sys)
		for _, cc := range e.CrossConds {
			fmt.Fprintf(&b, " AND [cross] %s", cc.Key)
		}
		if kernel != nil && !kernel.ElemCompiled(i) {
			b.WriteString("  [kernel: interpreter fallback]")
		}
		b.WriteByte('\n')
	}
	if kernel != nil {
		fmt.Fprintf(&b, "kernel: %d/%d elements compiled to selection masks", kernel.CompiledElems(), p.Len())
		if n := kernel.FallbackElems(); n > 0 {
			fmt.Fprintf(&b, " (%d interpreter fallback)", n)
		}
		b.WriteByte('\n')
	}
	loop := engine.NaiveSearchLoop(kernel)
	if executor != NaiveExec.String() {
		loop = engine.SearchLoop(p, q.plan.tables, kernel)
	}
	fmt.Fprintf(&b, "search loop: %s\n", loop)
	b.WriteByte('\n')
	b.WriteString(q.plan.tables.Explain())
	return b.String()
}

// ExplainGraph renders the §5.1 implication graph G_P^j for a failure at
// pattern element j (1-based) in Graphviz DOT format, with the
// shift-determining paths highlighted. It returns "" for plain SELECTs
// or out-of-range j.
func (q *Query) ExplainGraph(j int) string {
	p := q.plan.compiled.Pattern
	if p == nil || j < 2 || j > p.Len() {
		return ""
	}
	return core.GraphDOT(p, j)
}

// Run executes the query with default options (OPS, left-maximal).
func (q *Query) Run() (*Result, error) { return q.RunWith(RunOptions{}) }

// RunWith executes the query with explicit options. For a prepared
// EXPLAIN the result is the rendered plan (one "QUERY PLAN" text
// column); EXPLAIN ANALYZE additionally executes the query and
// annotates the plan with measured per-phase timings and counters.
func (q *Query) RunWith(opts RunOptions) (*Result, error) {
	q, err := q.current()
	if err != nil {
		return nil, err
	}
	switch q.plan.explain {
	case explainPlan:
		res := planResult(q.Explain(), engine.Stats{})
		res.planCached = q.planCached
		return res, nil
	case explainAnalyze:
		text, stats, err := q.explainAnalyzeText(opts)
		if err != nil {
			return nil, err
		}
		res := planResult(text, stats)
		res.planCached = q.planCached
		return res, nil
	}
	res, _, err := q.runMeasured(opts)
	return res, err
}

// current returns q when its plan is of the DB's catalog version, and
// otherwise the query Prepare makes of the plan's text now: a plan's
// column indexes are those of the schemas it was compiled against, so a
// handle prepared before a table was replaced or a declaration changed
// runs the plan its text has under the current catalog, found in or
// compiled into the plan cache as Prepare would. q itself is not changed.
func (q *Query) current() (*Query, error) {
	if q.plan.catalogVersion == q.db.catalog.Load() {
		return q, nil
	}
	cur, err := q.db.Prepare(q.plan.sql)
	if err != nil {
		q.db.metrics.queryErrors.Inc()
	}
	return cur, err
}

// admitContained runs the admission gate inside its own containment
// boundary: the gate sits outside execute's recover, so an injected (or
// genuine) panic there would otherwise escape the query lifecycle.
func (q *Query) admitContained(ctx context.Context) (release func(), wait time.Duration, err error) {
	defer func() {
		if r := recover(); r != nil {
			release, wait = nil, 0
			err = &PanicError{Statement: q.plan.key, Value: r, Stack: debug.Stack()}
		}
	}()
	return q.db.admitQuery(ctx)
}

// runMeasured executes the query through the full lifecycle — deadline
// setup, admission, cooperative execution — and builds the execution's
// one record, its obs.Event, whatever the outcome (success, cancellation,
// deadline, budget, contained panic, admission rejection, plain error).
// DB.observe feeds every view from that value.
func (q *Query) runMeasured(opts RunOptions) (res *Result, ev obs.Event, err error) {
	ctx := opts.Context
	if opts.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = deadlineContext(ctx, opts.Deadline)
		defer cancel()
	}
	// The run's batch run: its control — its context and budgets, and with
	// the recorder on its id and what a late flight registration needs
	// (runControl) — its lanes, and what the driver finds.
	executor := opts.Executor.String()
	b := q.db.startRun(ctx, q.plan, opts, executor)
	defer func() { q.db.endRun(q.plan, b, err) }()
	rc := &b.rc
	// Entry checkpoint: an already-expired context fails deterministically
	// before any work (or queueing) happens.
	err = rc.check()
	// The admission gate is taken only when a bound is configured or the
	// sqlts.admission fault point is armed: an unlimited DB pays one atomic
	// load per run.
	var admWait time.Duration
	if err == nil && (q.db.admit.on.Load() || fault.Active()) {
		// A run that can block registers before it waits, so that it is seen
		// while queued. A context run gets a derived cancel wired to the
		// flight, so an operator kill interrupts even the wait; context-free
		// runs observe the kill flag at their cooperative checkpoints.
		if fl := rc.registerQueued(); fl != nil && ctx != nil {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
			fl.SetCancel(cancel)
			rc.limit(ctx, opts)
		}
		var release func()
		release, admWait, err = q.admitContained(ctx)
		if err == nil {
			defer release()
		} else if kerr := rc.flightRef().KillErr(); kerr != nil && errors.Is(err, ErrCanceled) {
			// A kill during the queue wait surfaces as the context
			// cancellation the flight's cancel fired; re-check the kill flag
			// so the typed ErrKilled wins.
			err = kerr
		}
	}
	// The run's duration is the time after admission, failed or not; a
	// flight registered from here on starts at admission.
	admitted := time.Now()
	var scanned int
	if err == nil {
		rc.admitted(admitted)
		res, scanned, err = q.execute(b, opts)
	}
	now := time.Now()
	dur := now.Sub(admitted).Nanoseconds()
	slowNs := q.db.slowNs.Load()
	ev = obs.Event{
		Time:            now,
		QueryID:         rc.queryID(),
		SQL:             q.plan.key,
		Executor:        executor,
		DurationNs:      dur,
		AdmissionWaitNs: admWait.Nanoseconds(),
		PlanCached:      q.planCached,
		PatternCached:   !q.planCached && q.plan.patternCached,
		Kernel:          q.plan.vectorized(),
		Slow:            slowNs > 0 && dur >= slowNs,
	}
	if err != nil {
		ev.Error = err.Error()
		ev.ErrorKind = classifyError(err).String()
	} else {
		res.planCached = q.planCached
		ev.Rows = int64(len(res.Rows))
		ev.RowsScanned = int64(scanned)
		ev.Clusters = int64(b.found.clusters)
		ev.PredEvals = res.Stats.PredEvals
		ev.Rollbacks = res.Stats.Rollbacks
		ev.Matches = int64(res.Stats.Matches)
		ev.PartitionCached = res.partition.cached
		ev.Partition = res.partition.String()
		// A run that searched has a lane that did; a plain SELECT and an
		// always-empty pattern search nothing, vectorized or not.
		ev.Vectorized = ev.Kernel && b.found.workers > 0
		ev.Workers = b.found.workers
		ev.HelpersBorrowed = b.found.borrowed
		ev.HelpersDenied = b.found.denied
		ev.HelpersYielded = b.found.yielded
	}
	q.db.observe(q, &ev, err)
	return res, ev, err
}

// cachedWord renders a cache outcome for events and EXPLAIN ANALYZE. A
// partition has a third outcome, "refreshed": see partitionOutcome.String.
func cachedWord(hit bool) string {
	if hit {
		return "cached"
	}
	return "built"
}

// execute is the raw execution path under runMeasured: no event, no
// metrics. It is also a panic-containment boundary (see Query.recovered)
// for everything around the cluster search, which contains its own: a
// failed run returns its typed error, never a partial Result. b is the
// run's batch run, whose lanes search the clusters and keep what the
// driver found.
func (q *Query) execute(b *batchRun, opts RunOptions) (res *Result, scanned int, err error) {
	rc := &b.rc
	defer func() {
		if r := recover(); r != nil {
			res, scanned, err = nil, 0, q.recovered(r)
		}
	}()
	if err := rc.check(); err != nil {
		return nil, 0, err
	}
	compiled := q.plan.compiled
	res = &Result{
		Columns: compiled.OutNames[:len(compiled.OutNames):len(compiled.OutNames)],
		Types:   compiled.OutTypes[:len(compiled.OutTypes):len(compiled.OutTypes)],
	}
	if compiled.Pattern == nil || compiled.AlwaysEmpty() {
		t := q.db.Table(compiled.Table)
		if t == nil {
			return nil, 0, fmt.Errorf("sqlts: table %q disappeared", compiled.Table)
		}
		if compiled.AlwaysEmpty() {
			return res, 0, nil
		}
		rows, _ := t.Snapshot()
		if err := rc.checkScanned(len(rows)); err != nil {
			return nil, 0, err
		}
		rc.tick(0, int64(len(rows)), 0)
		for ri, row := range rows {
			if ri&1023 == 1023 {
				if err := rc.check(); err != nil {
					return nil, 0, err
				}
			}
			out, ok, err := compiled.EvalPlainRow(row)
			if err != nil {
				return nil, 0, err
			}
			if ok {
				res.Rows = append(res.Rows, out)
			}
		}
		return res, len(rows), nil
	}

	// Fetch the clusters with this plan's memoized selection bitmasks
	// (built on the first execution of the plan over the partition, so warm
	// runs skip the sort, the O(rows) decode and the mask build); NoCache
	// runs bypass the partition cache.
	part, how, err := q.db.partition(q.plan, opts.NoCache)
	if err != nil {
		return nil, 0, err
	}
	if err := rc.checkScanned(part.Rows); err != nil {
		return nil, 0, err
	}
	res.partition = how
	res.m = int32(compiled.Pattern.Len())
	b.q, b.key, b.clusters, b.masks = q, executorKey{opts.Executor, opts.Overlap}, part.Groups, q.plan.masks(part)
	rc.setClustersTotal(int64(part.Groups.Len()))
	if err := b.searchClusters(res, part.Rows, opts.MaxWorkers); err != nil {
		return nil, 0, err
	}
	if a := q.plan.art; a.matches.Load() != int64(res.Stats.Matches) {
		a.matches.Store(int64(res.Stats.Matches))
	}
	if err := rc.check(); err != nil {
		return nil, 0, err
	}
	return res, part.Rows, nil
}

// newExecutor builds the executor key asks for over the artifact's
// pattern, tables and kernel.
func (a *patternArtifact) newExecutor(key executorKey) engine.Executor {
	p := a.analysis.Pattern
	if key.kind == NaiveExec {
		n := engine.NewNaive(p, key.policy())
		n.UseKernel(a.kernel)
		return n
	}
	o := engine.NewOPS(p, a.tables, engine.OPSConfig{Policy: key.policy()})
	o.UseKernel(a.kernel)
	return o
}

// Format renders a result as an aligned text table, for the CLI and
// examples.
func (r *Result) Format(w io.Writer) error {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			cells[ri][i] = s
			if i < len(widths) && len(s) > widths[i] {
				widths[i] = len(s)
			}
		}
	}
	var b strings.Builder
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for i := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, s := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], s)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
