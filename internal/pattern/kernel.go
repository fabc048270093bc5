// Kernel compilation: at Prepare time each pattern element's local
// condition list is compiled once, into atoms (vecAtom, vec.go) — plain
// data naming the columns, row offsets, operator and constants of each
// comparison. The atoms are the kernel's only compiled form of a
// condition, and two evaluators read them: the batch builders turn them
// into one selection bitmask per element (BuildMasks, BuildRun), and the
// row path (EvalElem) answers one probe at a time against a columnar
// projection of the cluster (storage.Projection) — no boxed Values, no
// per-probe numeric widening. Both test the missing predecessor first,
// then nulls, then the comparison, over the same expression, so a row's
// verdict is its mask bit. Elements holding an opaque predicate have no
// atoms and fall back to the interpreter (Pattern.EvalElem) as a whole, so
// kernel and interpreter execution are match-for-match and count-for-count
// identical. Cross conditions are always evaluated through the
// interpreter's EvalContext — they inspect earlier bindings, which have no
// columnar form.
package pattern

import (
	"slices"

	"sqlts/internal/storage"
)

// elemKernel is one element's compiled form: its local conditions in
// order, as indexes into the kernel's distinct conditions. ok is false
// when a local condition has no atom form (an opaque predicate): the
// element is then interpreted and has no mask.
type elemKernel struct {
	conds []int
	ok    bool
	// same is the first element with an identical condition list (the
	// element's own index when there is none before it).
	same     int
	hasCross bool
}

// Kernel is the compiled predicate program of a pattern: per element,
// either a list of conditions over columnar data or an interpreter-
// fallback marker. A Kernel is immutable after compilation and safe for
// concurrent use; per-cluster state lives in the Projection and MaskSet,
// which each executor owns or shares read-only.
type Kernel struct {
	p       *Pattern
	elems   []elemKernel
	conds   []vecCond // the distinct conditions elems index
	numCols []int
	strCols []int
	// nullCols are the projected columns, each once: the ones a MaskSet
	// keeps a null bitmask of.
	nullCols []int

	compiled int
	// vecScratch is how many scratch masks a build needs (two when some
	// condition is a disjunction).
	vecScratch int

	// The layout of a MaskSet, fixed at compilation (layoutMasks): slots
	// masks in all; elemSlot[j] is element j's (-1: not compiled) and
	// pureSlot[j] the same when the mask alone answers the element (-1: a
	// probe needs more); nullSlot[c] is schema column c's null mask (-1:
	// not projected). allPure: no pureSlot is -1.
	slots              int
	elemSlot, pureSlot []int32
	nullSlot           []int32
	allPure            bool
}

// CompileKernel builds the kernel program for the pattern. It never
// fails: elements that cannot be compiled are marked for interpreter
// fallback.
func (p *Pattern) CompileKernel() *Kernel {
	k := &Kernel{p: p, elems: make([]elemKernel, len(p.Elems))}
	numSet := map[int]bool{}
	strSet := map[int]bool{}
	for idx := range p.Elems {
		k.addElem(idx, numSet, strSet)
	}
	for c := range numSet {
		k.numCols = append(k.numCols, c)
		k.nullCols = append(k.nullCols, c)
	}
	for c := range strSet {
		k.strCols = append(k.strCols, c)
		if !numSet[c] {
			k.nullCols = append(k.nullCols, c)
		}
	}
	// Map order is not an order: kernels over the same columns list them
	// alike, which is what lets them share scratch projections.
	slices.Sort(k.numCols)
	slices.Sort(k.strCols)
	slices.Sort(k.nullCols)
	k.layoutMasks()
	return k
}

// CompiledElems returns how many elements are compiled: each has a row
// form and a mask.
func (k *Kernel) CompiledElems() int { return k.compiled }

// VecElems returns how many elements have a mask: every compiled one.
func (k *Kernel) VecElems() int { return k.compiled }

// FallbackElems returns how many elements fall back to the interpreter:
// those holding an opaque predicate.
func (k *Kernel) FallbackElems() int { return len(k.elems) - k.compiled }

// Len returns the number of pattern elements.
func (k *Kernel) Len() int { return len(k.elems) }

// ElemCompiled reports whether element j (0-based) is compiled.
func (k *Kernel) ElemCompiled(j int) bool { return k.elems[j].ok }

// NewProjection allocates a projection sized for the kernel's referenced
// columns over the pattern's schema.
func (k *Kernel) NewProjection() *storage.Projection {
	return storage.NewProjection(k.p.Schema.Len(), k.numCols, k.strCols)
}

// EvalElem evaluates pattern element j (0-based) at ctx.Pos from its
// conditions' atoms when it is compiled, through the interpreter
// otherwise. proj must hold the columnar decode of ctx.Seq (same
// indexing). The result is identical to Pattern.EvalElem, and to the
// element's mask bit at ctx.Pos.
func (k *Kernel) EvalElem(j int, proj *storage.Projection, ctx *EvalContext) bool {
	e := &k.elems[j]
	if !e.ok {
		return k.p.EvalElem(j, ctx)
	}
	i, mpt := ctx.Pos, k.p.MissingPrevTrue
	for _, ci := range e.conds {
		// An atomic condition is answered by its atom with no call between.
		c := &k.conds[ci]
		if c.branches != nil {
			if !c.holds(proj, i, mpt) {
				return false
			}
		} else if !c.atom.holds(proj, i, mpt) {
			return false
		}
	}
	return !e.hasCross || k.crossHolds(j, ctx)
}

// crossHolds interprets element j's cross conditions at ctx.
func (k *Kernel) crossHolds(j int, ctx *EvalContext) bool {
	cc := k.p.Elems[j].CrossConds
	for ci := range cc {
		if !cc[ci].CtxFn(ctx) {
			return false
		}
	}
	return true
}

// roleDelta maps a role to its row offset: cur → 0, prev → 1.
func roleDelta(r Role) int {
	if r == Prev {
		return 1
	}
	return 0
}
