package obs

// Statement-level statistics: a sharded, lock-cheap store keyed by
// normalized SQL text. Every query execution (and stream push) lands a
// handful of atomic adds on its statement's entry, so the serving path
// pays no shared lock; the shard mutexes are touched only to resolve a
// key to its entry (read-locked) or to create one (write-locked, once
// per statement).
//
// The package stays engine-agnostic: callers hand over plain integers
// (QueryObs), and snapshots come back as JSON-taggable values.

import (
	"hash/maphash"
	"sort"
	"sync"
	"sync/atomic"
)

// latBounds are the statement histograms' bucket upper bounds in
// nanoseconds: geometric from 1µs with ratio 1.5, 48 buckets (≈1µs …
// ≈190s), plus the implicit overflow bucket. Ratio 1.5 bounds the
// worst-case quantile error at ~25% before interpolation, which is plenty
// for p50/p95/p99 dashboards while keeping Observe a short binary search.
var latBounds = func() []int64 {
	b := make([]int64, maxBounds)
	v := 1000.0
	for i := range b {
		b[i] = int64(v)
		v *= 1.5
	}
	return b
}()

// ErrClass classifies a failed execution for per-statement accounting.
// The classes mirror the caller's typed error taxonomy without importing
// its error values.
type ErrClass uint8

// Error classes. ErrOther is every failure outside the lifecycle
// taxonomy (analysis errors, missing tables, predicate type errors).
// ErrKilled is the operator-kill subset of cancellation — split out so
// a human killing a runaway query via /debug/queries is
// distinguishable from an application context going away.
const (
	ErrOther ErrClass = iota
	ErrCanceled
	ErrDeadline
	ErrBudget
	ErrPanic
	ErrRejected
	ErrKilled
)

// String names the class for wide events and text renderings.
func (c ErrClass) String() string {
	switch c {
	case ErrCanceled:
		return "canceled"
	case ErrDeadline:
		return "deadline"
	case ErrBudget:
		return "budget"
	case ErrPanic:
		return "panic"
	case ErrRejected:
		return "rejected"
	case ErrKilled:
		return "killed"
	default:
		return "other"
	}
}

// QueryObs carries one finished query execution into the store: plain
// integers so the caller's engine types stay out of this package.
type QueryObs struct {
	DurNs           int64
	Rows            int64
	RowsScanned     int64
	PredEvals       int64
	Rollbacks       int64
	Matches         int64
	AdmissionWaitNs int64
	PlanCached      bool
	PartitionCached bool
	// Kernel reports whether compiled predicate kernels evaluated probes
	// (false = interpreter run: the pattern compiled no element).
	Kernel bool
	// Naive marks runs of the naive executor; pred-evals of naive and
	// optimized runs accumulate separately so the paper's savings metric
	// is computable per statement once both have been observed.
	Naive bool
	// Vectorized reports whether the run probed through selection
	// bitmasks.
	Vectorized bool
}

// StmtStats accumulates counters for one statement. All fields are
// atomics; methods are safe for concurrent use and no-ops on a nil
// receiver (a disabled store hands out nil entries).
type StmtStats struct {
	key string
	// overflow marks the store's shared overflow entry; dropped is set when
	// a Reset drops the entry from its store (StmtRef).
	overflow bool
	dropped  atomic.Bool

	calls     atomic.Int64
	errors    atomic.Int64
	canceled  atomic.Int64
	deadline  atomic.Int64
	budget    atomic.Int64
	panics    atomic.Int64
	rejected  atomic.Int64
	killed    atomic.Int64
	admWaitNs atomic.Int64
	rows      atomic.Int64
	scanned   atomic.Int64
	predEvals atomic.Int64
	rollbacks atomic.Int64
	matches   atomic.Int64

	planHits   atomic.Int64
	partHits   atomic.Int64
	kernelRuns atomic.Int64
	interpRuns atomic.Int64

	naiveCalls     atomic.Int64
	naivePredEvals atomic.Int64
	optCalls       atomic.Int64
	optPredEvals   atomic.Int64

	vectorizedRuns atomic.Int64

	pushes      atomic.Int64
	pushMatches atomic.Int64
	prunedRows  atomic.Int64
	streamsOpen atomic.Int64

	lat     Histogram
	pushLat Histogram
}

func newStmtStats(key string) *StmtStats {
	s := &StmtStats{key: key}
	s.lat.bounds, s.pushLat.bounds = latBounds, latBounds
	return s
}

// Key returns the statement key (normalized SQL) the entry aggregates.
func (s *StmtStats) Key() string {
	if s == nil {
		return ""
	}
	return s.key
}

// RecordQuery folds one finished execution into the entry.
func (s *StmtStats) RecordQuery(o QueryObs) {
	if s == nil {
		return
	}
	s.calls.Add(1)
	s.rows.Add(o.Rows)
	s.scanned.Add(o.RowsScanned)
	s.predEvals.Add(o.PredEvals)
	s.rollbacks.Add(o.Rollbacks)
	s.matches.Add(o.Matches)
	if o.PlanCached {
		s.planHits.Add(1)
	}
	if o.PartitionCached {
		s.partHits.Add(1)
	}
	if o.Kernel {
		s.kernelRuns.Add(1)
	} else {
		s.interpRuns.Add(1)
	}
	if o.Naive {
		s.naiveCalls.Add(1)
		s.naivePredEvals.Add(o.PredEvals)
	} else {
		s.optCalls.Add(1)
		s.optPredEvals.Add(o.PredEvals)
	}
	if o.Vectorized {
		s.vectorizedRuns.Add(1)
	}
	s.admWaitNs.Add(o.AdmissionWaitNs)
	s.lat.Observe(o.DurNs)
}

// RecordError counts one failed execution under its class.
func (s *StmtStats) RecordError(c ErrClass) {
	if s == nil {
		return
	}
	s.errors.Add(1)
	switch c {
	case ErrCanceled:
		s.canceled.Add(1)
	case ErrDeadline:
		s.deadline.Add(1)
	case ErrBudget:
		s.budget.Add(1)
	case ErrPanic:
		s.panics.Add(1)
	case ErrRejected:
		s.rejected.Add(1)
	case ErrKilled:
		s.killed.Add(1)
	}
}

// RecordAdmissionWait accumulates queue-wait time for an execution that
// did not finish (rejected or canceled while waiting); successful runs
// carry their wait in QueryObs.AdmissionWaitNs instead.
func (s *StmtStats) RecordAdmissionWait(ns int64) {
	if s == nil {
		return
	}
	s.admWaitNs.Add(ns)
}

// RecordPush counts one stream push: a tuple that reached the matcher.
func (s *StmtStats) RecordPush() {
	if s == nil {
		return
	}
	s.pushes.Add(1)
}

// RecordPushCost folds what one stream push cost into the entry: rows
// pruned from the retained window, plus the push latency when it was
// sampled (a negative durNs means this push's latency was not measured —
// pruned counts stay exact, the latency histogram subsamples).
func (s *StmtStats) RecordPushCost(durNs, pruned int64) {
	if s == nil {
		return
	}
	if pruned != 0 {
		s.prunedRows.Add(pruned)
	}
	if durNs >= 0 {
		s.pushLat.Observe(durNs)
	}
}

// RecordPushMatch counts one match emitted by a continuous query.
func (s *StmtStats) RecordPushMatch() {
	if s == nil {
		return
	}
	s.pushMatches.Add(1)
}

// StreamOpened / StreamClosed track the statement's open-stream gauge.
func (s *StmtStats) StreamOpened() {
	if s == nil {
		return
	}
	s.streamsOpen.Add(1)
}

// StreamClosed decrements the open-stream gauge.
func (s *StmtStats) StreamClosed() {
	if s == nil {
		return
	}
	s.streamsOpen.Add(-1)
}

// StmtSnapshot is a point-in-time copy of one statement's counters,
// JSON-ready for /debug/statements. Individual fields are read
// atomically; a snapshot taken while updates are in flight may be
// internally skewed by the in-flight deltas.
type StmtSnapshot struct {
	SQL    string `json:"sql"`
	Calls  int64  `json:"calls"`
	Errors int64  `json:"errors,omitempty"`

	// Error-class breakdown (subsets of Errors).
	Canceled          int64 `json:"canceled,omitempty"`
	DeadlineExceeded  int64 `json:"deadline_exceeded,omitempty"`
	BudgetExceeded    int64 `json:"budget_exceeded,omitempty"`
	Panics            int64 `json:"panics,omitempty"`
	AdmissionRejected int64 `json:"admission_rejected,omitempty"`
	// Killed counts operator kills (the /debug/queries POST or the REPL
	// \kill), a disjoint subset from Canceled — the two together are the
	// statement's cancellation-shaped failures.
	Killed          int64 `json:"killed,omitempty"`
	AdmissionWaitNs int64 `json:"admission_wait_ns,omitempty"`

	Rows        int64 `json:"rows"`
	RowsScanned int64 `json:"rows_scanned"`
	PredEvals   int64 `json:"pred_evals"`
	Rollbacks   int64 `json:"rollbacks"`
	Matches     int64 `json:"matches"`

	PlanCacheHits      int64 `json:"plan_cache_hits"`
	PartitionCacheHits int64 `json:"partition_cache_hits"`
	KernelRuns         int64 `json:"kernel_runs"`
	InterpreterRuns    int64 `json:"interpreter_runs"`

	NaiveCalls     int64 `json:"naive_calls,omitempty"`
	NaivePredEvals int64 `json:"naive_pred_evals,omitempty"`
	// OPSSavingsPct is the paper's headline metric — the percentage of
	// per-call predicate evaluations OPS saves over naive — computable
	// once the statement has been run under both executors (EXPLAIN
	// ANALYZE's diagnostic re-run does not count; see RunOptions.Executor).
	// Both averages run over every call since the entry was created,
	// whatever version of the table each call read.
	OPSSavingsPct float64 `json:"ops_savings_pct,omitempty"`

	// VectorizedRuns counts executions that probed through selection
	// bitmasks.
	VectorizedRuns int64 `json:"vectorized_runs,omitempty"`

	TotalNs int64 `json:"total_ns"`
	MeanNs  int64 `json:"mean_ns"`
	P50Ns   int64 `json:"p50_ns"`
	P95Ns   int64 `json:"p95_ns"`
	P99Ns   int64 `json:"p99_ns"`
	MaxNs   int64 `json:"max_ns"`

	StreamPushes  int64 `json:"stream_pushes,omitempty"`
	StreamMatches int64 `json:"stream_matches,omitempty"`
	PrunedRows    int64 `json:"stream_pruned_rows,omitempty"`
	StreamsOpen   int64 `json:"streams_open,omitempty"`
	PushP50Ns     int64 `json:"push_p50_ns,omitempty"`
	PushP99Ns     int64 `json:"push_p99_ns,omitempty"`
}

// Snapshot copies the entry's counters.
func (s *StmtStats) Snapshot() StmtSnapshot {
	if s == nil {
		return StmtSnapshot{}
	}
	out := StmtSnapshot{
		SQL:    s.key,
		Calls:  s.calls.Load(),
		Errors: s.errors.Load(),

		Canceled:          s.canceled.Load(),
		DeadlineExceeded:  s.deadline.Load(),
		BudgetExceeded:    s.budget.Load(),
		Panics:            s.panics.Load(),
		AdmissionRejected: s.rejected.Load(),
		Killed:            s.killed.Load(),
		AdmissionWaitNs:   s.admWaitNs.Load(),

		Rows:        s.rows.Load(),
		RowsScanned: s.scanned.Load(),
		PredEvals:   s.predEvals.Load(),
		Rollbacks:   s.rollbacks.Load(),
		Matches:     s.matches.Load(),

		PlanCacheHits:      s.planHits.Load(),
		PartitionCacheHits: s.partHits.Load(),
		KernelRuns:         s.kernelRuns.Load(),
		InterpreterRuns:    s.interpRuns.Load(),

		NaiveCalls:     s.naiveCalls.Load(),
		NaivePredEvals: s.naivePredEvals.Load(),

		TotalNs: s.lat.Sum(),
		P50Ns:   s.lat.Quantile(0.50),
		P95Ns:   s.lat.Quantile(0.95),
		P99Ns:   s.lat.Quantile(0.99),
		MaxNs:   s.lat.Max(),

		StreamPushes:  s.pushes.Load(),
		StreamMatches: s.pushMatches.Load(),
		PrunedRows:    s.prunedRows.Load(),
		StreamsOpen:   s.streamsOpen.Load(),
		PushP50Ns:     s.pushLat.Quantile(0.50),
		PushP99Ns:     s.pushLat.Quantile(0.99),
	}
	if out.Calls > 0 {
		out.MeanNs = out.TotalNs / out.Calls
	}
	if nc, oc := out.NaiveCalls, s.optCalls.Load(); nc > 0 && oc > 0 {
		naiveAvg := float64(out.NaivePredEvals) / float64(nc)
		optAvg := float64(s.optPredEvals.Load()) / float64(oc)
		if naiveAvg > 0 {
			out.OPSSavingsPct = 100 * (1 - optAvg/naiveAvg)
		}
	}
	out.VectorizedRuns = s.vectorizedRuns.Load()
	return out
}

// OverflowKey is the catch-all entry statements fold into once the
// store is at capacity, so totals stay exact even when per-statement
// resolution is lost.
const OverflowKey = "(other statements)"

const stmtShards = 16

type stmtShard struct {
	mu      sync.RWMutex
	entries map[string]*StmtStats
}

// StmtStore maps statement keys to their stats entries. Get resolves or
// creates entries with per-shard locks; all accumulation happens on the
// returned entry's atomics. Capacity bounds the number of distinct
// tracked statements — beyond it, new statements share one overflow
// entry (OverflowKey) — and capacity 0 disables tracking entirely (Get
// returns nil, whose methods are no-ops).
type StmtStore struct {
	capacity atomic.Int64
	count    atomic.Int64
	overflow atomic.Pointer[StmtStats]
	seed     maphash.Seed // of the shard hash
	shards   [stmtShards]stmtShard
}

// NewStmtStore creates a store tracking at most capacity distinct
// statements (0 disables tracking).
func NewStmtStore(capacity int) *StmtStore {
	st := &StmtStore{seed: maphash.MakeSeed()}
	st.capacity.Store(int64(capacity))
	for i := range st.shards {
		st.shards[i].entries = map[string]*StmtStats{}
	}
	return st
}

// shard returns key's shard.
func (st *StmtStore) shard(key string) *stmtShard {
	return &st.shards[maphash.String(st.seed, key)%stmtShards]
}

// Get returns the entry for key, creating it on first use. At capacity
// it returns the shared overflow entry; with tracking disabled it
// returns nil.
func (st *StmtStore) Get(key string) *StmtStats {
	cap := st.capacity.Load()
	if cap <= 0 {
		return nil
	}
	sh := st.shard(key)
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e != nil {
		return e
	}
	if st.count.Load() >= cap {
		return st.overflowEntry()
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e = sh.entries[key]; e != nil {
		return e
	}
	// Re-check under the shard lock; a concurrent flood may have filled
	// the store since the load above (mild over-admission across shards
	// is acceptable — the cap bounds memory, it is not a quota).
	if st.count.Load() >= cap {
		return st.overflowEntry()
	}
	e = newStmtStats(key)
	sh.entries[key] = e
	st.count.Add(1)
	return e
}

// Lookup returns the entry for key without creating one.
func (st *StmtStore) Lookup(key string) *StmtStats {
	sh := st.shard(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.entries[key]
}

func (st *StmtStore) overflowEntry() *StmtStats {
	if e := st.overflow.Load(); e != nil {
		return e
	}
	e := newStmtStats(OverflowKey)
	e.overflow = true
	if st.overflow.CompareAndSwap(nil, e) {
		return e
	}
	return st.overflow.Load()
}

// Len reports the number of distinct tracked statements (the overflow
// entry excluded).
func (st *StmtStore) Len() int { return int(st.count.Load()) }

// Capacity returns the current statement capacity (0 = disabled).
func (st *StmtStore) Capacity() int { return int(st.capacity.Load()) }

// SetCapacity changes the tracked-statement bound. Shrinking does not
// evict existing entries (they keep aggregating); 0 stops tracking and
// clears the store.
func (st *StmtStore) SetCapacity(n int) {
	st.capacity.Store(int64(n))
	if n <= 0 {
		st.Reset()
	}
}

// Reset drops every entry (and the overflow entry). Goroutines holding
// an entry across the reset keep updating their orphaned copy, which is
// then unreachable from snapshots — resets are coarse, not linearized
// against in-flight executions.
func (st *StmtStore) Reset() {
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for _, e := range sh.entries {
			e.dropped.Store(true)
		}
		sh.entries = map[string]*StmtStats{}
		sh.mu.Unlock()
	}
	if e := st.overflow.Swap(nil); e != nil {
		e.dropped.Store(true)
	}
	st.count.Store(0)
}

// Entries returns the live entries in unspecified order (overflow entry
// last when present).
func (st *StmtStore) Entries() []*StmtStats {
	out := make([]*StmtStats, 0, st.count.Load()+1)
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.RLock()
		for _, e := range sh.entries {
			out = append(out, e)
		}
		sh.mu.RUnlock()
	}
	if e := st.overflow.Load(); e != nil {
		out = append(out, e)
	}
	return out
}

// Snapshots returns a snapshot per entry, sorted by total query time
// descending (hot statements first), ties broken by key.
func (st *StmtStore) Snapshots() []StmtSnapshot {
	es := st.Entries()
	out := make([]StmtSnapshot, len(es))
	for i, e := range es {
		out[i] = e.Snapshot()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TotalNs != out[j].TotalNs {
			return out[i].TotalNs > out[j].TotalNs
		}
		return out[i].SQL < out[j].SQL
	})
	return out
}

// StmtRef keeps one key's entry for a holder that records the same key
// run after run (a plan): Entry resolves the key through Get the first
// time, and again only once the kept entry has been dropped by a Reset or
// is the shared overflow entry, which a larger capacity may replace with
// an entry of the key's own. The zero value is ready.
type StmtRef struct {
	p atomic.Pointer[StmtStats]
}

// Entry returns key's entry in st, as Get would. An entry a concurrent
// Reset drops after the check takes the recording in flight, as an entry
// Get returned would; the next call resolves the key again.
func (r *StmtRef) Entry(st *StmtStore, key string) *StmtStats {
	if e := r.p.Load(); e != nil && !e.overflow && !e.dropped.Load() {
		return e
	}
	e := st.Get(key)
	r.p.Store(e)
	return e
}
