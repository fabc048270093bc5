// Vectorized kernel compilation: alongside the row-at-a-time closure
// chains (kernel.go), each compilable local condition also gets a batch
// form (vecFn) that evaluates the entire projection into a []uint64
// selection bitmask with a branch-free compare loop. Per element the
// condition masks AND together (disjunctions OR their per-branch ANDs),
// producing one mask per element whose bit i answers "does row i satisfy
// the element's local conditions?" — the same verdict the row chain
// computes, bit for bit, including the missing-predecessor policy and
// null handling. Executors then answer probes with a single bit test
// (plus cross-condition interpretation) and skip runs of zero bits by
// trailing-zeros iteration.
//
// Vectorization is strictly wider than row compilation in one way
// (disjunctions vectorize; the row kernel interprets them) and never
// narrower: any element whose local conditions all vec-compile is
// vectorizable. Opaque predicates never vectorize — they are arbitrary
// functions, so their verdicts cannot be precomputed soundly.
package pattern

import (
	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

// vecFn fills dst — a selection bitmask of storage.MaskWords(n) words —
// with one condition's verdict for every row of the projection. Every
// word of dst is fully overwritten, so callers need not clear it.
type vecFn func(p *storage.Projection, dst []uint64, n int)

// vecCond is one local condition's batch form: a single mask builder,
// or — for disjunctions — per-branch builder chains whose masks AND
// within a branch and OR across branches.
type vecCond struct {
	fn       vecFn
	branches [][]vecFn
}

// vecElem is one element's vectorized form; ok is false when any local
// condition resisted vectorization (opaque predicates).
type vecElem struct {
	conds []vecCond
	ok    bool
}

// MaskStats are the build-time selectivity measurements of one mask
// build: per-element and per-condition set-bit counts over Rows rows.
// Condition rates are measured independently (each condition's mask is
// counted before ANDing), so they are invariant under conjunct
// reordering — the property the adaptive optimizer relies on to reach a
// stable order.
type MaskStats struct {
	Rows     int64
	ElemHits []int64
	CondHits [][]int64
}

// Add accumulates o into s, growing s's slices as needed (clusters of
// one partition aggregate into a single per-statement measurement).
func (s *MaskStats) Add(o *MaskStats) {
	s.Rows += o.Rows
	for len(s.ElemHits) < len(o.ElemHits) {
		s.ElemHits = append(s.ElemHits, 0)
	}
	for j, h := range o.ElemHits {
		s.ElemHits[j] += h
	}
	for len(s.CondHits) < len(o.CondHits) {
		s.CondHits = append(s.CondHits, nil)
	}
	for j, hs := range o.CondHits {
		for len(s.CondHits[j]) < len(hs) {
			s.CondHits[j] = append(s.CondHits[j], 0)
		}
		for ci, h := range hs {
			s.CondHits[j][ci] += h
		}
	}
}

// Sub removes o, which an earlier Add put into s: when a cluster's masks
// are rebuilt, its old measurement leaves the aggregate and the new one
// joins it. The counts are integers, so the result is exactly the
// aggregate a from-scratch build would have reached.
func (s *MaskStats) Sub(o *MaskStats) {
	s.Rows -= o.Rows
	for j, h := range o.ElemHits {
		s.ElemHits[j] -= h
	}
	for j, hs := range o.CondHits {
		for ci, h := range hs {
			s.CondHits[j][ci] -= h
		}
	}
}

// MaskSet holds the per-element selection bitmasks of one projected
// sequence, plus the selectivity stats measured while building them.
// Like a Projection it covers one cluster, is immutable to executors
// (they only read it), and retains its buffers across rebuilds.
type MaskSet struct {
	elems   [][]uint64 // nil for elements that are not vectorized
	rows    int
	stats   MaskStats
	scratch [3][]uint64 // cond / branch-AND / builder output
}

// Rows returns the number of rows the masks cover.
func (ms *MaskSet) Rows() int { return ms.rows }

// Elem returns element j's mask, nil when the element is not
// vectorized (probes then take the row path).
func (ms *MaskSet) Elem(j int) []uint64 { return ms.elems[j] }

// Stats returns the selectivity measurements of the last build.
func (ms *MaskSet) Stats() *MaskStats { return &ms.stats }

// VecElems returns how many elements have a vectorized (mask) form.
func (k *Kernel) VecElems() int { return k.vecCnt }

// ElemVectorized reports whether element j (0-based) has a mask form.
func (k *Kernel) ElemVectorized(j int) bool { return k.vecs[j].ok }

// ElemHasCross reports whether element j carries cross conditions,
// which a mask cannot cover (they inspect earlier bindings).
func (k *Kernel) ElemHasCross(j int) bool { return k.elems[j].hasCross }

// sizeMask returns a mask buffer of exactly words words, reusing m's
// capacity; contents are unspecified (builders overwrite fully).
func sizeMask(m []uint64, words int) []uint64 {
	if cap(m) < words {
		return make([]uint64, words)
	}
	return m[:words]
}

// BuildMasks evaluates every vectorized element of the kernel over the
// projection into ms (allocating one when nil), returning it. Buffers
// are reused across builds, so a warmed MaskSet rebuild allocates
// nothing. The masks are a pure function of the kernel and the
// projection's rows; callers may share a built MaskSet read-only across
// executors exactly like the projection itself.
func (k *Kernel) BuildMasks(proj *storage.Projection, ms *MaskSet) *MaskSet {
	if ms == nil {
		ms = &MaskSet{}
	}
	n := proj.Len()
	words := storage.MaskWords(n)
	ne := len(k.elems)
	ms.rows = n
	if len(ms.elems) != ne {
		ms.elems = make([][]uint64, ne)
	}
	st := &ms.stats
	st.Rows = int64(n)
	if len(st.ElemHits) != ne {
		st.ElemHits = make([]int64, ne)
	}
	if len(st.CondHits) != ne {
		st.CondHits = make([][]int64, ne)
	}
	for i := range ms.scratch {
		ms.scratch[i] = sizeMask(ms.scratch[i], words)
	}
	for j := range k.vecs {
		ve := &k.vecs[j]
		st.ElemHits[j] = 0
		st.CondHits[j] = st.CondHits[j][:0]
		if !ve.ok {
			ms.elems[j] = nil
			continue
		}
		em := sizeMask(ms.elems[j], words)
		if len(ve.conds) == 0 {
			storage.MaskFill(em, n)
		}
		for ci := range ve.conds {
			cm := ms.scratch[0]
			buildCondMask(proj, &ve.conds[ci], cm, ms.scratch[1], ms.scratch[2], n)
			st.CondHits[j] = append(st.CondHits[j], storage.MaskPopcount(cm))
			if ci == 0 {
				copy(em, cm)
			} else {
				storage.MaskAnd(em, cm)
			}
		}
		ms.elems[j] = em
		st.ElemHits[j] = storage.MaskPopcount(em)
	}
	return ms
}

// buildCondMask evaluates one condition into dst: directly for atomic
// conditions, OR-of-branch-ANDs for disjunctions (branch and tmp are
// scratch of the same word count).
func buildCondMask(p *storage.Projection, c *vecCond, dst, branch, tmp []uint64, n int) {
	if c.fn != nil {
		c.fn(p, dst, n)
		return
	}
	storage.MaskZero(dst)
	for _, br := range c.branches {
		if len(br) == 0 {
			// A branch with no conditions holds vacuously everywhere.
			storage.MaskFill(dst, n)
			return
		}
		br[0](p, branch, n)
		for _, fn := range br[1:] {
			fn(p, tmp, n)
			storage.MaskAnd(branch, tmp)
		}
		storage.MaskOr(dst, branch)
	}
}

// EvalElemMasked evaluates element j at ctx.Pos using its selection
// bitmask: a bit test for the local conditions plus interpretation of
// any cross conditions. Elements without a mask take the row path
// (EvalElem). The verdict is identical to EvalElem's in every case.
func (k *Kernel) EvalElemMasked(j int, proj *storage.Projection, ms *MaskSet, ctx *EvalContext) bool {
	m := ms.elems[j]
	if m == nil {
		return k.EvalElem(j, proj, ctx)
	}
	if !storage.MaskHas(m, ctx.Pos) {
		return false
	}
	e := &k.elems[j]
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

// compileVecCond builds the batch form of one local condition,
// registering referenced columns in numSet/strSet (sharing the row
// compiler's sets, so disjunction columns — which the row kernel never
// registers — still reach the projection).
func compileVecCond(c *Cond, mpt bool, numSet, strSet map[int]bool) (vecCond, bool) {
	if c.Kind == OrCond {
		branches := make([][]vecFn, 0, len(c.Branches))
		for bi := range c.Branches {
			br := c.Branches[bi]
			fns := make([]vecFn, 0, len(br))
			for i := range br {
				fn := compileVecFn(&br[i], mpt, numSet, strSet)
				if fn == nil {
					return vecCond{}, false
				}
				fns = append(fns, fn)
			}
			branches = append(branches, fns)
		}
		return vecCond{branches: branches}, true
	}
	fn := compileVecFn(c, mpt, numSet, strSet)
	if fn == nil {
		return vecCond{}, false
	}
	return vecCond{fn: fn}, true
}

// compileVecFn mirrors compileCond's dispatch for the batch builders.
func compileVecFn(c *Cond, mpt bool, numSet, strSet map[int]bool) vecFn {
	switch c.Kind {
	case NumFieldConst:
		numSet[c.LCol] = true
		return vecNumConst(c.LCol, roleDelta(c.LRole), mpt, c.Op, c.C)
	case NumFieldField:
		numSet[c.LCol] = true
		numSet[c.RCol] = true
		return vecNumField(c.LCol, roleDelta(c.LRole), c.RCol, roleDelta(c.RRole), mpt, c.Op, c.C, 1)
	case NumFieldScaled:
		numSet[c.LCol] = true
		numSet[c.RCol] = true
		return vecNumField(c.LCol, roleDelta(c.LRole), c.RCol, roleDelta(c.RRole), mpt, c.Op, 0, c.Coef)
	case StrFieldLit:
		strSet[c.LCol] = true
		return vecStrLit(c.LCol, roleDelta(c.LRole), mpt, c.Op, c.Lit)
	case StrFieldField:
		strSet[c.LCol] = true
		strSet[c.RCol] = true
		return vecStrField(c.LCol, roleDelta(c.LRole), c.RCol, roleDelta(c.RRole), mpt, c.Op)
	default:
		return nil
	}
}

// b2u converts a bool to a 0/1 word without a branch (the compiler
// emits a flag-set instruction).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// The builders below replicate the row kernels of kernel.go exactly:
// the missing-predecessor verdict (mpt) applies at row 0 before the
// null check, nulls fail, and the compared expression is the same
// float/string expression the row closure computes.

// vecNumConst batches field(role,col) op C.
func vecNumConst(col, d int, mpt bool, op constraint.Op, c float64) vecFn {
	needPrev := d > 0
	mk := func(cmp func(a float64) bool) vecFn {
		return func(p *storage.Projection, dst []uint64, n int) {
			num, null := p.Num[col], p.Null[col]
			for base := 0; base < n; base += 64 {
				end := base + 64
				if end > n {
					end = n
				}
				var w uint64
				for i := base; i < end; i++ {
					ri := i
					if needPrev {
						if i == 0 {
							w |= b2u(mpt)
							continue
						}
						ri = i - 1
					}
					w |= (b2u(cmp(num[ri])) &^ b2u(null[ri])) << uint(i-base)
				}
				dst[base>>6] = w
			}
		}
	}
	switch op {
	case constraint.Eq:
		return mk(func(a float64) bool { return a == c })
	case constraint.Ne:
		return mk(func(a float64) bool { return a != c })
	case constraint.Lt:
		return mk(func(a float64) bool { return a < c })
	case constraint.Le:
		return mk(func(a float64) bool { return a <= c })
	case constraint.Gt:
		return mk(func(a float64) bool { return a > c })
	case constraint.Ge:
		return mk(func(a float64) bool { return a >= c })
	default:
		return nil
	}
}

// vecNumField batches field op coef*field' + c.
func vecNumField(lcol, ld, rcol, rd int, mpt bool, op constraint.Op, c, coef float64) vecFn {
	needPrev := ld > 0 || rd > 0
	mk := func(cmp func(a, b float64) bool) vecFn {
		return func(p *storage.Projection, dst []uint64, n int) {
			ln, rn := p.Num[lcol], p.Num[rcol]
			lnull, rnull := p.Null[lcol], p.Null[rcol]
			for base := 0; base < n; base += 64 {
				end := base + 64
				if end > n {
					end = n
				}
				var w uint64
				for i := base; i < end; i++ {
					if needPrev && i == 0 {
						w |= b2u(mpt)
						continue
					}
					li, ri := i-ld, i-rd
					ok := b2u(cmp(ln[li], coef*rn[ri]+c)) &^ (b2u(lnull[li]) | b2u(rnull[ri]))
					w |= ok << uint(i-base)
				}
				dst[base>>6] = w
			}
		}
	}
	switch op {
	case constraint.Eq:
		return mk(func(a, b float64) bool { return a == b })
	case constraint.Ne:
		return mk(func(a, b float64) bool { return a != b })
	case constraint.Lt:
		return mk(func(a, b float64) bool { return a < b })
	case constraint.Le:
		return mk(func(a, b float64) bool { return a <= b })
	case constraint.Gt:
		return mk(func(a, b float64) bool { return a > b })
	case constraint.Ge:
		return mk(func(a, b float64) bool { return a >= b })
	default:
		return nil
	}
}

// vecStrLit batches field(role,col) op "lit".
func vecStrLit(col, d int, mpt bool, op constraint.Op, lit string) vecFn {
	needPrev := d > 0
	mk := func(cmp func(a string) bool) vecFn {
		return func(p *storage.Projection, dst []uint64, n int) {
			str, null := p.Str[col], p.Null[col]
			for base := 0; base < n; base += 64 {
				end := base + 64
				if end > n {
					end = n
				}
				var w uint64
				for i := base; i < end; i++ {
					ri := i
					if needPrev {
						if i == 0 {
							w |= b2u(mpt)
							continue
						}
						ri = i - 1
					}
					w |= (b2u(cmp(str[ri])) &^ b2u(null[ri])) << uint(i-base)
				}
				dst[base>>6] = w
			}
		}
	}
	switch op {
	case constraint.Eq:
		return mk(func(a string) bool { return a == lit })
	case constraint.Ne:
		return mk(func(a string) bool { return a != lit })
	case constraint.Lt:
		return mk(func(a string) bool { return a < lit })
	case constraint.Le:
		return mk(func(a string) bool { return a <= lit })
	case constraint.Gt:
		return mk(func(a string) bool { return a > lit })
	case constraint.Ge:
		return mk(func(a string) bool { return a >= lit })
	default:
		return nil
	}
}

// vecStrField batches field op field' over string columns.
func vecStrField(lcol, ld, rcol, rd int, mpt bool, op constraint.Op) vecFn {
	needPrev := ld > 0 || rd > 0
	mk := func(cmp func(a, b string) bool) vecFn {
		return func(p *storage.Projection, dst []uint64, n int) {
			ls, rs := p.Str[lcol], p.Str[rcol]
			lnull, rnull := p.Null[lcol], p.Null[rcol]
			for base := 0; base < n; base += 64 {
				end := base + 64
				if end > n {
					end = n
				}
				var w uint64
				for i := base; i < end; i++ {
					if needPrev && i == 0 {
						w |= b2u(mpt)
						continue
					}
					li, ri := i-ld, i-rd
					ok := b2u(cmp(ls[li], rs[ri])) &^ (b2u(lnull[li]) | b2u(rnull[ri]))
					w |= ok << uint(i-base)
				}
				dst[base>>6] = w
			}
		}
	}
	switch op {
	case constraint.Eq:
		return mk(func(a, b string) bool { return a == b })
	case constraint.Ne:
		return mk(func(a, b string) bool { return a != b })
	case constraint.Lt:
		return mk(func(a, b string) bool { return a < b })
	case constraint.Le:
		return mk(func(a, b string) bool { return a <= b })
	case constraint.Gt:
		return mk(func(a, b string) bool { return a > b })
	case constraint.Ge:
		return mk(func(a, b string) bool { return a >= b })
	default:
		return nil
	}
}
