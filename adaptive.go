package sqlts

// The stats-fed adaptive optimizer (PR 8): serving-path feedback closes
// the loop between the vectorized mask builds — which measure every
// conjunct's independent match rate over the data actually scanned —
// and the plan cache. Two adaptations, both pure wins under the paper's
// pred-eval metric:
//
//   - Conjunct reorder: within one element, AND-ed local conditions are
//     re-ordered most-selective-first. Probes count one pred-eval per
//     (tuple, element) test regardless of conjunct order, so the metric
//     is untouched; what improves is the per-probe work — the row
//     kernel short-circuits on the first false conjunct, and the mask
//     build ANDs the emptiest mask first.
//   - Executor flip: when a statement has been observed under both the
//     naive and the optimized executor and the measured savings are
//     zero or negative (ops_savings_pct ≤ 0), Auto runs flip to naive —
//     the optimizer's shift/next machinery isn't paying for itself on
//     this statement's data. Per-statement pred-evals can only drop.
//
// A Plan is immutable, so adaptation derives a new Plan (revision+1)
// and swaps it into the plan cache under the same normalized-SQL key,
// only if the cached entry is still the plan the measurements came
// from. Statements prepared via DB.Query/Prepare pick up the new
// revision on their next call; long-lived Query handles keep their
// plan, which stays correct. Statement stats key their mask-rate block
// by revision, so measurements from diverged conjunct orders never
// blend (see obs.MaskRates).

import (
	"sort"

	"sqlts/internal/obs"
	"sqlts/internal/pattern"
)

const (
	// adaptMinCalls is the minimum number of observed executions before
	// any adaptation; adaptCheckEvery paces re-checks after that.
	adaptMinCalls   = 64
	adaptCheckEvery = 32
	// adaptReorderMargin is the minimum match-rate advantage (absolute,
	// in [0,1]) a later conjunct must have over an earlier one before a
	// reorder is worth a replan — hysteresis against rate jitter.
	adaptReorderMargin = 0.10
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
	if plan.compiled == nil || plan.compiled.Pattern == nil || plan.kernel == nil {
		return
	}
	// Experiment modes measure deliberately perturbed executions; their
	// observations must not steer the served plan.
	if opts.NoKernel || opts.NoVectorize || opts.Trace {
		return
	}
	calls := entry.Calls()
	if calls < adaptMinCalls || calls%adaptCheckEvery != 0 {
		return
	}
	perm := adaptPermutation(plan, entry.CondMatchRates(int64(plan.revision)))
	preferNaive := plan.preferNaive
	if sav, ok := entry.OPSSavingsObserved(); ok && sav <= 0 {
		preferNaive = true
	}
	if perm == nil && preferNaive == plan.preferNaive {
		return
	}
	if db.replacePlan(plan.key, plan, derivePlan(plan, perm, preferNaive)) {
		db.metrics.adaptiveReplans.Inc()
	}
}

// adaptPermutation decides the per-element conjunct reorder from the
// measured independent match rates. It returns nil when every element is
// already ordered within the hysteresis margin; otherwise a permutation
// slice per element (nil entries = leave that element alone), where
// perm[j][i] is the current index of the conjunct that should run i-th.
func adaptPermutation(plan *Plan, rates [][]float64) [][]int {
	if rates == nil {
		return nil
	}
	p := plan.compiled.Pattern
	k := plan.kernel
	out := make([][]int, len(p.Elems))
	hit := false
	for j := range p.Elems {
		// Only fully vectorized elements have per-conjunct rates, and the
		// rates are only trustworthy when they cover the current order.
		if j >= len(rates) || !k.ElemVectorized(j) {
			continue
		}
		r := rates[j]
		if len(r) != len(p.Elems[j].Local) || len(r) < 2 {
			continue
		}
		idx := make([]int, len(r))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return r[idx[a]] < r[idx[b]] })
		// Replan only when the measured order beats the current one by
		// more than the margin somewhere — equal-rate shuffles and noise
		// within the margin keep the plan stable.
		worth := false
		for i := range idx {
			if r[i]-r[idx[i]] > adaptReorderMargin {
				worth = true
				break
			}
		}
		if !worth {
			continue
		}
		out[j] = idx
		hit = true
	}
	if !hit {
		return nil
	}
	return out
}

// derivePlan builds the next revision of a plan: the same statement with
// per-element conjunct permutations applied (perm may be nil for an
// executor-flip-only derivation) and the adaptive executor preference
// recorded. The shift/next tables are reused — they are computed from
// the elements' predicate systems, which an intra-element conjunct
// reorder does not change — and the kernel is recompiled only when the
// condition lists actually moved.
func derivePlan(old *Plan, perm [][]int, preferNaive bool) *Plan {
	np := &Plan{
		sql:            old.sql,
		key:            old.key,
		compiled:       old.compiled,
		tables:         old.tables,
		kernel:         old.kernel,
		explain:        old.explain,
		catalogVersion: old.catalogVersion,
		compileSpans:   old.compileSpans,
		revision:       old.revision + 1,
		preferNaive:    preferNaive,
	}
	if perm == nil {
		return np
	}
	c := *old.compiled
	p := *c.Pattern
	p.Elems = append([]pattern.Element(nil), c.Pattern.Elems...)
	for j, pm := range perm {
		if pm == nil {
			continue
		}
		local := make([]pattern.Cond, len(pm))
		for i, src := range pm {
			local[i] = p.Elems[j].Local[src]
		}
		p.Elems[j].Local = local
	}
	c.Pattern = &p
	np.compiled = &c
	np.kernel = p.CompileKernel()
	return np
}

// replacePlan swaps the cached plan for key from old to next, only if
// the cache still holds old — a concurrent replan or recompile wins and
// this derivation is dropped.
func (db *DB) replacePlan(key string, old, next *Plan) bool {
	db.cacheMu.Lock()
	defer db.cacheMu.Unlock()
	el, ok := db.plans.entries[key]
	if !ok {
		return false
	}
	if el.Value.(*planEntry).plan != old {
		return false
	}
	db.plans.swap(el, next)
	return true
}
