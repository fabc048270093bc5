package sqlts

// The adaptive optimizer (PR 8) is one decision fed by serving-path
// statistics, the executor flip: when a statement has been observed under
// both the naive and the optimized executor and the measured savings are
// zero or negative (ops_savings_pct ≤ 0), Auto runs flip to naive — the
// optimizer's shift/next machinery isn't paying for itself on this
// statement's data. Per-statement pred-evals can only drop.
//
// A Plan is immutable, so the flip derives a new Plan (revision+1) and
// swaps it into the plan cache under the same normalized-SQL key, only if
// the cached entry is still the plan the measurements came from. The
// derived plan keeps its predecessor's pattern, tables and kernel, so
// every partition memo built for the statement stays valid. Statements
// prepared via DB.Query/Prepare pick up the new revision on their next
// call; long-lived Query handles keep their plan, which stays correct.

import "sqlts/internal/obs"

const (
	// adaptMinCalls is the minimum number of observed executions before
	// a flip; adaptCheckEvery paces re-checks after that.
	adaptMinCalls   = 64
	adaptCheckEvery = 32
)

// SetAdaptive enables or disables the adaptive optimizer (default on).
// Disabling does not undo past replans; it stops future ones.
func (db *DB) SetAdaptive(on bool) { db.adaptiveOff.Store(!on) }

// maybeAdapt runs the adaptation check after an observed execution. It
// is deliberately cheap when nothing triggers: one atomic load plus a
// modulo on the call count.
func (db *DB) maybeAdapt(q *Query, opts RunOptions, entry *obs.StmtStats) {
	if entry == nil || db.adaptiveOff.Load() {
		return
	}
	plan := q.plan
	if plan.kernel == nil { // no pattern, no executor to flip
		return
	}
	// Experiment modes measure deliberately perturbed executions; their
	// observations must not steer the served plan.
	if opts.NoKernel || opts.NoVectorize || opts.Trace {
		return
	}
	calls := entry.Calls()
	if plan.preferNaive || calls < adaptMinCalls || calls%adaptCheckEvery != 0 {
		return
	}
	if sav, ok := entry.OPSSavingsObserved(); !ok || sav > 0 {
		return
	}
	if db.replacePlan(plan.key, plan, derivePlan(plan, true)) {
		db.metrics.adaptiveReplans.Inc()
	}
}

// derivePlan builds the next revision of a plan: the same statement,
// pattern, shift/next tables and kernel, with the adaptive executor
// preference recorded.
func derivePlan(old *Plan, preferNaive bool) *Plan {
	return &Plan{
		sql:            old.sql,
		key:            old.key,
		compiled:       old.compiled,
		tables:         old.tables,
		kernel:         old.kernel,
		explain:        old.explain,
		catalogVersion: old.catalogVersion,
		trace:          old.trace,
		shape:          old.shape,
		revision:       old.revision + 1,
		preferNaive:    preferNaive,
	}
}

// replacePlan swaps the cached plan for key from old to next, a revision
// derived from it, only if the cache still holds old — a concurrent
// replan or recompile wins and this derivation is dropped. Nothing is
// evicted: next runs old's kernel.
func (db *DB) replacePlan(key string, old, next *Plan) bool {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	el, ok := db.plans.entries[key]
	if !ok || el.Value.(*planEntry).plan != old {
		return false
	}
	el.Value.(*planEntry).plan = next
	return true
}
