// Kernel compilation: at Prepare time each pattern element's local
// condition list is compiled into a flat chain of specialized closures
// that evaluate directly against a columnar projection of the cluster
// (storage.Projection) — no boxed Values, no per-probe numeric widening,
// no tagged-union dispatch. Elements whose conditions cannot be
// kernelized (opaque predicates and disjunctions) fall back to the
// interpreter (Pattern.EvalElem), condition by nothing less than the
// whole element, so kernel and interpreter execution are match-for-match
// and count-for-count identical. Cross conditions are always evaluated
// through the interpreter's EvalContext — they inspect earlier bindings,
// which have no columnar form.
package pattern

import (
	"slices"

	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

// condFn is one compiled condition: does row i of the projection
// satisfy it?
type condFn func(p *storage.Projection, i int) bool

// elemKernel is one element's compiled form.
type elemKernel struct {
	fns      []condFn
	fallback bool // evaluate the element via the interpreter
	hasCross bool
}

// Kernel is the compiled predicate program of a pattern: per element,
// either a chain of specialized closures over columnar data or an
// interpreter-fallback marker. A Kernel is immutable after compilation
// and safe for concurrent use; per-cluster state lives in the
// Projection, which each executor owns.
type Kernel struct {
	p       *Pattern
	elems   []elemKernel
	vecs    []vecElem
	vconds  []vecCond // the distinct batch conditions vecs index
	numCols []int
	strCols []int
	// nullCols are the projected columns, each once: the ones a MaskSet
	// keeps a null bitmask of.
	nullCols []int

	compiled int
	fallback int
	vecCnt   int
	// vecScratch is how many scratch masks a build needs (two when some
	// condition is a disjunction).
	vecScratch int

	// The layout of a MaskSet, fixed at compilation (layoutMasks): slots
	// masks in all; elemSlot[j] is element j's (-1: not vectorized) and
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
	k := &Kernel{p: p, elems: make([]elemKernel, len(p.Elems)), vecs: make([]vecElem, len(p.Elems))}
	numSet := map[int]bool{}
	strSet := map[int]bool{}
	for idx := range p.Elems {
		e := &p.Elems[idx]
		ek := elemKernel{hasCross: len(e.CrossConds) > 0}
		fns := make([]condFn, 0, len(e.Local))
		for i := range e.Local {
			fn := compileCond(&e.Local[i], p.MissingPrevTrue, numSet, strSet)
			if fn == nil {
				fns = nil
				break
			}
			fns = append(fns, fn)
		}
		if fns == nil && len(e.Local) > 0 {
			ek.fallback = true
			k.fallback++
		} else {
			ek.fns = fns
			k.compiled++
		}
		k.elems[idx] = ek
		// The batch (mask) form compiles independently: disjunctions
		// vectorize even though the row kernel interprets them.
		k.addVecElem(idx, e.Local, numSet, strSet)
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

// CompiledElems returns how many elements run on compiled chains.
func (k *Kernel) CompiledElems() int { return k.compiled }

// FallbackElems returns how many elements fall back to the interpreter.
func (k *Kernel) FallbackElems() int { return k.fallback }

// Len returns the number of pattern elements.
func (k *Kernel) Len() int { return len(k.elems) }

// ElemCompiled reports whether element j (0-based) runs on a compiled
// chain.
func (k *Kernel) ElemCompiled(j int) bool { return !k.elems[j].fallback }

// NewProjection allocates a projection sized for the kernel's referenced
// columns over the pattern's schema.
func (k *Kernel) NewProjection() *storage.Projection {
	return storage.NewProjection(k.p.Schema.Len(), k.numCols, k.strCols)
}

// EvalElem evaluates pattern element j (0-based) at ctx.Pos using the
// compiled chain when available, the interpreter otherwise. proj must
// hold the columnar decode of ctx.Seq (same indexing). The result is
// identical to Pattern.EvalElem.
func (k *Kernel) EvalElem(j int, proj *storage.Projection, ctx *EvalContext) bool {
	e := &k.elems[j]
	if e.fallback {
		return k.p.EvalElem(j, ctx)
	}
	i := ctx.Pos
	for _, fn := range e.fns {
		if !fn(proj, i) {
			return false
		}
	}
	if e.hasCross {
		cc := k.p.Elems[j].CrossConds
		for ci := range cc {
			if !cc[ci].CtxFn(ctx) {
				return false
			}
		}
	}
	return true
}

// compileCond compiles one local condition to a specialized closure, or
// returns nil when the condition must be interpreted (opaque predicates,
// disjunctions). It records referenced columns in numSet/strSet.
func compileCond(c *Cond, missingPrevTrue bool, numSet, strSet map[int]bool) condFn {
	switch c.Kind {
	case NumFieldConst:
		numSet[c.LCol] = true
		return numConstKernel(c.LCol, roleDelta(c.LRole), missingPrevTrue, c.Op, c.C)
	case NumFieldField:
		numSet[c.LCol] = true
		numSet[c.RCol] = true
		return numFieldKernel(c.LCol, roleDelta(c.LRole), c.RCol, roleDelta(c.RRole), missingPrevTrue, c.Op, c.C, 1)
	case NumFieldScaled:
		numSet[c.LCol] = true
		numSet[c.RCol] = true
		return numFieldKernel(c.LCol, roleDelta(c.LRole), c.RCol, roleDelta(c.RRole), missingPrevTrue, c.Op, 0, c.Coef)
	case StrFieldLit:
		strSet[c.LCol] = true
		return strLitKernel(c.LCol, roleDelta(c.LRole), missingPrevTrue, c.Op, c.Lit)
	case StrFieldField:
		strSet[c.LCol] = true
		strSet[c.RCol] = true
		return strFieldKernel(c.LCol, roleDelta(c.LRole), c.RCol, roleDelta(c.RRole), missingPrevTrue, c.Op)
	default:
		// OpaqueCond, OrCond (and defensively anything else) interpret.
		return nil
	}
}

// roleDelta maps a role to its row offset: cur → 0, prev → 1.
func roleDelta(r Role) int {
	if r == Prev {
		return 1
	}
	return 0
}

// The four kernels below return one closure per operator with the
// comparison written in it, so a probe is one indirect call. Each tests,
// in this order: the missing-predecessor verdict (d, ld, rd are 0 for the
// current row and 1 for its predecessor, so only row 0 can lack one),
// then nulls, which fail, then the comparison.

// numConstKernel compiles field(role,col) op C.
func numConstKernel(col, d int, mpt bool, op constraint.Op, c float64) condFn {
	switch op {
	case constraint.Eq:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Num[col][i] == c
		}
	case constraint.Ne:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Num[col][i] != c
		}
	case constraint.Lt:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Num[col][i] < c
		}
	case constraint.Le:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Num[col][i] <= c
		}
	case constraint.Gt:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Num[col][i] > c
		}
	case constraint.Ge:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Num[col][i] >= c
		}
	default:
		return nil
	}
}

// numFieldKernel compiles field op coef*field' + c (coef 1 for the
// additive NumFieldField form, c 0 for the scaled NumFieldScaled form).
func numFieldKernel(lcol, ld, rcol, rd int, mpt bool, op constraint.Op, c, coef float64) condFn {
	needPrev := ld > 0 || rd > 0
	switch op {
	case constraint.Eq:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Num[lcol][li] == coef*p.Num[rcol][ri]+c
		}
	case constraint.Ne:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Num[lcol][li] != coef*p.Num[rcol][ri]+c
		}
	case constraint.Lt:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Num[lcol][li] < coef*p.Num[rcol][ri]+c
		}
	case constraint.Le:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Num[lcol][li] <= coef*p.Num[rcol][ri]+c
		}
	case constraint.Gt:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Num[lcol][li] > coef*p.Num[rcol][ri]+c
		}
	case constraint.Ge:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Num[lcol][li] >= coef*p.Num[rcol][ri]+c
		}
	default:
		return nil
	}
}

// strLitKernel compiles field(role,col) op "lit".
func strLitKernel(col, d int, mpt bool, op constraint.Op, lit string) condFn {
	switch op {
	case constraint.Eq:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Str[col][i] == lit
		}
	case constraint.Ne:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Str[col][i] != lit
		}
	case constraint.Lt:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Str[col][i] < lit
		}
	case constraint.Le:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Str[col][i] <= lit
		}
	case constraint.Gt:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Str[col][i] > lit
		}
	case constraint.Ge:
		return func(p *storage.Projection, i int) bool {
			if i -= d; i < 0 {
				return mpt
			}
			return !p.Null[col][i] && p.Str[col][i] >= lit
		}
	default:
		return nil
	}
}

// strFieldKernel compiles field op field' over string columns.
func strFieldKernel(lcol, ld, rcol, rd int, mpt bool, op constraint.Op) condFn {
	needPrev := ld > 0 || rd > 0
	switch op {
	case constraint.Eq:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Str[lcol][li] == p.Str[rcol][ri]
		}
	case constraint.Ne:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Str[lcol][li] != p.Str[rcol][ri]
		}
	case constraint.Lt:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Str[lcol][li] < p.Str[rcol][ri]
		}
	case constraint.Le:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Str[lcol][li] <= p.Str[rcol][ri]
		}
	case constraint.Gt:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Str[lcol][li] > p.Str[rcol][ri]
		}
	case constraint.Ge:
		return func(p *storage.Projection, i int) bool {
			if needPrev && i == 0 {
				return mpt
			}
			li, ri := i-ld, i-rd
			return !p.Null[lcol][li] && !p.Null[rcol][ri] && p.Str[lcol][li] >= p.Str[rcol][ri]
		}
	default:
		return nil
	}
}
