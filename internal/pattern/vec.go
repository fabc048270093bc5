// Vectorized kernel compilation: alongside the row-at-a-time closures
// (kernel.go), each compilable local condition also gets a batch form
// that evaluates the entire projection into a []uint64 selection
// bitmask. Per element the condition masks AND together (disjunctions OR
// their per-branch ANDs), producing one mask per element whose bit i
// answers "does row i satisfy the element's local conditions?" — the
// same verdict the row chain computes, bit for bit, including the
// missing-predecessor policy and null handling. Executors then answer
// probes with a single bit test (plus cross-condition interpretation)
// and skip runs of zero bits by trailing-zeros iteration.
//
// A never-seen statement probes its masks once, so building them is its
// cost, and two things keep the build near the memory traffic it needs:
//
//   - A batch form is data (vecAtom), not a closure. The comparison loops
//     (maskConst, maskNumField, maskStrField) are ordinary top-level
//     functions over sub-sliced columns: the operator is switched on once
//     per 64-row word, and a row costs a compare, a flag-set and a shift —
//     no call, no null test, no first-row test. Each projected column's
//     nulls become a bitmask once per cluster (nullMask), cleared from a
//     condition's mask word by word, and row 0's missing-predecessor
//     verdict is one OR after the loops.
//   - Patterns repeat themselves (Example 10's nine elements hold five
//     distinct condition lists). A kernel numbers its distinct conditions
//     and BuildMasks builds each once per cluster; a one-condition element
//     uses the condition's mask as its own, and elements with the same
//     list share one mask.
//
// Vectorization is strictly wider than row compilation in one way
// (disjunctions vectorize; the row kernel interprets them) and never
// narrower: any element whose local conditions all vec-compile is
// vectorizable. Opaque predicates never vectorize — they are arbitrary
// functions, so their verdicts cannot be precomputed soundly.
package pattern

import (
	"cmp"
	"slices"
	"sync"

	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

// vecAtom is the batch form of one atomic condition, the same fields the
// row kernels of kernel.go close over. It is comparable: equal atoms
// build equal masks.
type vecAtom struct {
	kind     CondKind
	op       constraint.Op
	lcol, ld int // left column and its row offset (cur 0, prev 1)
	rcol, rd int
	c, coef  float64
	lit      string
}

// vecCond is one local condition's batch form: a single atom, or — for
// disjunctions — branches whose atoms AND within a branch and OR across
// branches.
type vecCond struct {
	atom     vecAtom
	branches [][]vecAtom // non-nil for a disjunction
}

func (c *vecCond) equal(o *vecCond) bool {
	return c.atom == o.atom && (c.branches == nil) == (o.branches == nil) &&
		slices.EqualFunc(c.branches, o.branches, func(a, b []vecAtom) bool { return slices.Equal(a, b) })
}

// vecElem is one element's vectorized form: its local conditions in
// order, as indexes into the kernel's distinct conditions. ok is false
// when any local condition resisted vectorization (opaque predicates).
type vecElem struct {
	conds []int
	ok    bool
	// same is the first element with an identical condition list (the
	// element's own index when there is none before it).
	same int
}

// MaskSet holds the selection bitmasks of one projected sequence: one
// cluster's. It is immutable to executors (they only read it). What it
// holds is one slab of the kernel's slot count of masks, each
// storage.MaskWords(rows) words long, slot after slot; which slot is which
// element's mask (elements may share one, with each other or with a
// condition) is the kernel's static table, so a set is a slab and a row
// count and no per-cluster array of slice headers.
type MaskSet struct {
	k    *Kernel
	slab []uint64
	rows int
}

// Rows returns the number of rows the masks cover.
func (ms *MaskSet) Rows() int { return ms.rows }

// Elem returns element j's mask, nil when the element is not
// vectorized (probes then take the row path).
func (ms *MaskSet) Elem(j int) []uint64 {
	s := ms.k.elemSlot[j]
	if s < 0 {
		return nil
	}
	return ms.slot(int(s))
}

// Words returns the set's slab and the number of words per mask: slot s
// is slab[s*words : (s+1)*words]. The search loops index it directly with
// the kernel's PureSlots instead of taking a slice header per element.
func (ms *MaskSet) Words() (slab []uint64, words int) {
	return ms.slab, storage.MaskWords(ms.rows)
}

func (ms *MaskSet) slot(s int) []uint64 {
	w := storage.MaskWords(ms.rows)
	return ms.slab[s*w : (s+1)*w : (s+1)*w]
}

// null returns the null bitmask of projected column c.
func (ms *MaskSet) null(c int) []uint64 { return ms.slot(int(ms.k.nullSlot[c])) }

// VecElems returns how many elements have a vectorized (mask) form.
func (k *Kernel) VecElems() int { return k.vecCnt }

// ElemHasCross reports whether element j carries cross conditions,
// which a mask cannot cover (they inspect earlier bindings).
func (k *Kernel) ElemHasCross(j int) bool { return k.elems[j].hasCross }

// PureSlots returns, per element, the slot of its mask in a MaskSet's
// slab when the mask alone answers the element's probes (vectorized, no
// cross conditions), and -1 when a probe needs more. The slice is the
// kernel's own: read-only.
func (k *Kernel) PureSlots() []int32 { return k.pureSlot }

// AllPure reports whether every element is answered by its mask alone. A
// search over such a kernel's masks never reads a projection.
func (k *Kernel) AllPure() bool { return k.allPure }

// layoutMasks numbers the masks a MaskSet holds, once per kernel: a slot
// per distinct condition, then one per element that combines several (or
// none), then one per projected column for its nulls. An element with one
// condition uses the condition's slot, and elements with the same list
// share one. Disjunction scratch is the builder's, not the set's.
func (k *Kernel) layoutMasks() {
	k.elemSlot = make([]int32, len(k.vecs))
	k.pureSlot = make([]int32, len(k.vecs))
	k.allPure = true
	own := int32(len(k.vconds))
	for j := range k.vecs {
		ve := &k.vecs[j]
		switch {
		case !ve.ok:
			k.elemSlot[j] = -1
		case ve.same != j:
			k.elemSlot[j] = k.elemSlot[ve.same]
		case len(ve.conds) == 1:
			k.elemSlot[j] = int32(ve.conds[0])
		default:
			k.elemSlot[j] = own
			own++
		}
		k.pureSlot[j] = k.elemSlot[j]
		if k.elems[j].hasCross {
			k.pureSlot[j] = -1
		}
		k.allPure = k.allPure && k.pureSlot[j] >= 0
	}
	k.nullSlot = make([]int32, k.p.Schema.Len())
	for c := range k.nullSlot {
		k.nullSlot[c] = -1
	}
	for i, c := range k.nullCols {
		k.nullSlot[c] = own + int32(i)
	}
	k.slots = int(own) + len(k.nullCols)
}

// BuildMasks evaluates every vectorized element of the kernel over the
// projection into ms (allocating one when nil), returning it: BuildRun's
// one-cluster case, for a caller that holds the projection. The slab is
// reused across builds (its spare capacity is the disjunction scratch), so
// a warmed MaskSet rebuild allocates nothing. The masks are a pure
// function of the kernel and the projection's rows; callers may share a
// built MaskSet read-only across executors exactly like the projection
// itself.
func (k *Kernel) BuildMasks(proj *storage.Projection, ms *MaskSet) *MaskSet {
	if ms == nil {
		ms = &MaskSet{}
	}
	words := storage.MaskWords(proj.Len())
	need, spare := k.slots*words, k.vecScratch*words
	if cap(ms.slab) < need+spare {
		ms.slab = make([]uint64, need+spare)
	}
	ms.k, ms.slab, ms.rows = k, ms.slab[:need], proj.Len()
	k.fill(ms, proj, ms.slab[need:need+spare])
	return ms
}

// BuildRun builds what a partition memo keeps of the run of clusters
// clusters[lo:hi]: for cluster i a projection of its own in projs[i] when
// projs is non-nil, and a MaskSet in masks[i] when masks is non-nil (both
// are indexed like clusters). The run's mask sets are carved from one
// []MaskSet and one []uint64, and the disjunction scratch is one buffer
// for the run; a run that keeps no projections decodes every cluster
// through one scratch projection. Nothing the run allocates is shared with
// another run, so rebuilding one cluster beside a shared slab writes none
// of it.
func (k *Kernel) BuildRun(clusters [][]storage.Row, lo, hi int, projs []*storage.Projection, masks []*MaskSet) {
	if lo >= hi {
		return
	}
	var (
		sets          []MaskSet
		slab, scratch []uint64
		proj          *storage.Projection
	)
	words, longest := 0, 0
	for _, rows := range clusters[lo:hi] {
		words += k.slots * storage.MaskWords(len(rows))
		longest = max(longest, len(rows))
	}
	if masks != nil {
		sets = make([]MaskSet, hi-lo)
		slab = make([]uint64, words)
		scratch = make([]uint64, k.vecScratch*storage.MaskWords(longest))
	}
	if projs == nil {
		proj = k.scratchProjection()
		defer scratchProjections.Put(proj)
		proj.Grow(longest)
	}
	for i := lo; i < hi; i++ {
		rows := clusters[i]
		if projs != nil {
			proj = k.NewProjection()
			projs[i] = proj
		}
		proj.SetRows(rows)
		if masks != nil {
			ms := &sets[i-lo]
			need := k.slots * storage.MaskWords(len(rows))
			*ms = MaskSet{k: k, slab: slab[:need:need], rows: len(rows)}
			slab = slab[need:]
			k.fill(ms, proj, scratch)
			masks[i] = ms
		}
	}
}

// scratchProjections holds the projections BuildRun decodes through when
// it keeps none. A never-seen statement builds its masks once, and a
// refresh rebuilds a handful of clusters, each as a run of its own: the
// decode buffer is most of what such a run would allocate, and statements
// over one table mostly read the same few columns, so the buffer of one
// kernel's run usually fits the next kernel's.
var scratchProjections sync.Pool

// scratchProjection returns a pooled projection over this kernel's
// columns, or a new one.
func (k *Kernel) scratchProjection() *storage.Projection {
	if p, _ := scratchProjections.Get().(*storage.Projection); p != nil && p.Covers(k.p.Schema.Len(), k.numCols, k.strCols) {
		return p
	}
	return k.NewProjection()
}

// Memoize completes a memo over clusters: it returns projs and masks with
// whichever of them is wanted and still nil built for every cluster, in
// one BuildRun. What is there, or not wanted, is returned as it came.
func (k *Kernel) Memoize(clusters [][]storage.Row, projs []*storage.Projection, masks []*MaskSet, wantProjs, wantMasks bool) ([]*storage.Projection, []*MaskSet) {
	var newProjs []*storage.Projection
	var newMasks []*MaskSet
	if wantProjs && projs == nil {
		newProjs = make([]*storage.Projection, len(clusters))
		projs = newProjs
	}
	if wantMasks && masks == nil {
		newMasks = make([]*MaskSet, len(clusters))
		masks = newMasks
	}
	if newProjs != nil || newMasks != nil {
		k.BuildRun(clusters, 0, len(clusters), newProjs, newMasks)
	}
	return projs, masks
}

// fill evaluates the kernel's masks over proj into ms, whose slab and row
// count are already proj's; scratch has room for the kernel's disjunction
// masks at that length. Every word of the slab is overwritten.
func (k *Kernel) fill(ms *MaskSet, proj *storage.Projection, scratch []uint64) {
	n := ms.rows
	words := storage.MaskWords(n)
	for _, c := range k.nullCols {
		nullMask(ms.null(c), proj.Null[c][:n])
	}
	var branch, tmp []uint64
	if k.vecScratch > 0 {
		branch, tmp = scratch[:words], scratch[words:2*words]
	}
	for ci := range k.vconds {
		k.buildCondMask(proj, ms, &k.vconds[ci], ms.slot(ci), branch, tmp, n)
	}
	for j := range k.vecs {
		// Only an element that combines several conditions (or none) has a
		// mask of its own to build; the rest read a condition's or another
		// element's.
		ve := &k.vecs[j]
		if !ve.ok || ve.same != j || len(ve.conds) == 1 {
			continue
		}
		em := ms.slot(int(k.elemSlot[j]))
		if len(ve.conds) == 0 {
			storage.MaskFill(em, n)
			continue
		}
		copy(em, ms.slot(ve.conds[0]))
		for _, ci := range ve.conds[1:] {
			storage.MaskAnd(em, ms.slot(ci))
		}
	}
}

// buildCondMask evaluates one condition into dst: directly for atomic
// conditions, OR-of-branch-ANDs for disjunctions (branch and tmp are
// scratch of the same word count).
func (k *Kernel) buildCondMask(p *storage.Projection, ms *MaskSet, c *vecCond, dst, branch, tmp []uint64, n int) {
	if c.branches == nil {
		c.atom.build(p, ms, dst, n, k.p.MissingPrevTrue)
		return
	}
	storage.MaskZero(dst)
	for _, br := range c.branches {
		if len(br) == 0 {
			// A branch with no conditions holds vacuously everywhere.
			storage.MaskFill(dst, n)
			return
		}
		br[0].build(p, ms, branch, n, k.p.MissingPrevTrue)
		for i := range br[1:] {
			br[1+i].build(p, ms, tmp, n, k.p.MissingPrevTrue)
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
	m := ms.Elem(j)
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

// addVecElem compiles element idx's local conditions to batch form,
// numbering each against the kernel's distinct conditions, and registers
// referenced columns in numSet/strSet (sharing the row compiler's sets,
// so disjunction columns — which the row kernel never registers — still
// reach the projection).
func (k *Kernel) addVecElem(idx int, local []Cond, numSet, strSet map[int]bool) {
	vcs := make([]vecCond, len(local))
	for i := range local {
		var ok bool
		if vcs[i], ok = compileVecCond(&local[i], numSet, strSet); !ok {
			return
		}
	}
	conds := make([]int, len(vcs))
	for i := range vcs {
		vc := &vcs[i]
		ci := slices.IndexFunc(k.vconds, func(o vecCond) bool { return vc.equal(&o) })
		if ci < 0 {
			ci = len(k.vconds)
			k.vconds = append(k.vconds, *vc)
			if vc.branches != nil {
				k.vecScratch = 2
			}
		}
		conds[i] = ci
	}
	same := slices.IndexFunc(k.vecs[:idx], func(o vecElem) bool { return o.ok && slices.Equal(o.conds, conds) })
	if same < 0 {
		same = idx
	}
	k.vecs[idx] = vecElem{conds: conds, ok: true, same: same}
	k.vecCnt++
}

// compileVecCond builds the batch form of one local condition.
func compileVecCond(c *Cond, numSet, strSet map[int]bool) (vecCond, bool) {
	if c.Kind != OrCond {
		a, ok := compileVecAtom(c, numSet, strSet)
		return vecCond{atom: a}, ok
	}
	branches := make([][]vecAtom, len(c.Branches))
	for bi, br := range c.Branches {
		branches[bi] = make([]vecAtom, len(br))
		for i := range br {
			a, ok := compileVecAtom(&br[i], numSet, strSet)
			if !ok {
				return vecCond{}, false
			}
			branches[bi][i] = a
		}
	}
	return vecCond{branches: branches}, true
}

// compileVecAtom mirrors compileCond's dispatch for the batch builders.
func compileVecAtom(c *Cond, numSet, strSet map[int]bool) (vecAtom, bool) {
	a := vecAtom{kind: c.Kind, op: c.Op, lcol: c.LCol, ld: roleDelta(c.LRole)}
	if c.Op > constraint.Ge {
		return a, false
	}
	switch c.Kind {
	case NumFieldConst:
		numSet[c.LCol] = true
		a.c = c.C
	case NumFieldField, NumFieldScaled:
		numSet[c.LCol] = true
		numSet[c.RCol] = true
		a.rcol, a.rd = c.RCol, roleDelta(c.RRole)
		// One form, field op coef*field' + c, as in numFieldKernel.
		a.kind, a.c, a.coef = NumFieldField, c.C, 1
		if c.Kind == NumFieldScaled {
			a.c, a.coef = 0, c.Coef
		}
	case StrFieldLit:
		strSet[c.LCol] = true
		a.lit = c.Lit
	case StrFieldField:
		strSet[c.LCol] = true
		strSet[c.RCol] = true
		a.rcol, a.rd = c.RCol, roleDelta(c.RRole)
	default:
		return a, false
	}
	return a, true
}

// build fills dst — a selection bitmask of storage.MaskWords(n) words —
// with the atom's verdict for every row of the projection, replicating
// the row kernels of kernel.go exactly: the missing-predecessor verdict
// (mpt) applies at row 0 before the null check, nulls fail, and the
// compared expression is the same float/string expression the row
// closure computes. ms holds the projection's null bitmasks, built before
// any condition. Every word of dst is fully overwritten.
func (a *vecAtom) build(p *storage.Projection, ms *MaskSet, dst []uint64, n int, mpt bool) {
	if n == 0 {
		return
	}
	// With a predecessor reference the verdicts start at row 1; either
	// way the columns are sub-sliced so that index 0 is row off.
	off := 0
	if a.ld > 0 || a.rd > 0 {
		off = 1
	}
	l0, l1, r0, r1 := off-a.ld, n-a.ld, off-a.rd, n-a.rd
	switch a.kind {
	case NumFieldConst:
		maskConst(dst, p.Num[a.lcol][l0:l1], a.op, a.c, off, n)
	case NumFieldField:
		maskNumField(dst, p.Num[a.lcol][l0:l1], p.Num[a.rcol][r0:r1], a.op, a.coef, a.c, off, n)
	case StrFieldLit:
		maskConst(dst, p.Str[a.lcol][l0:l1], a.op, a.lit, off, n)
	case StrFieldField:
		maskStrField(dst, p.Str[a.lcol][l0:l1], p.Str[a.rcol][r0:r1], a.op, off, n)
	}
	clearNulls(dst, ms.null(a.lcol), uint(a.ld))
	if a.kind == NumFieldField || a.kind == StrFieldField {
		clearNulls(dst, ms.null(a.rcol), uint(a.rd))
	}
	if off > 0 && mpt {
		dst[0] |= 1
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

// The loops below share one frame. Word w of dst covers rows
// [64w, 64w+64) clipped to [off, n); x[i] (and y[i]) belong to row off+i,
// so a word's rows are one sub-slice and a row's bit is its index in it
// plus sh, the word's first row's bit. Bits outside [off, n) stay clear.
// The operator is switched on per word; each case is the loop.

// maskConst sets bit r where x[r-off] op c.
func maskConst[T cmp.Ordered](dst []uint64, x []T, op constraint.Op, c T, off, n int) {
	for w := range dst {
		lo, hi := max(w<<6, off), min(w<<6+64, n)
		xs, sh := x[lo-off:hi-off], uint(lo-w<<6)
		var word uint64
		switch op {
		case constraint.Eq:
			for i, v := range xs {
				word |= b2u(v == c) << ((uint(i) + sh) & 63)
			}
		case constraint.Ne:
			for i, v := range xs {
				word |= b2u(v != c) << ((uint(i) + sh) & 63)
			}
		case constraint.Lt:
			for i, v := range xs {
				word |= b2u(v < c) << ((uint(i) + sh) & 63)
			}
		case constraint.Le:
			for i, v := range xs {
				word |= b2u(v <= c) << ((uint(i) + sh) & 63)
			}
		case constraint.Gt:
			for i, v := range xs {
				word |= b2u(v > c) << ((uint(i) + sh) & 63)
			}
		case constraint.Ge:
			for i, v := range xs {
				word |= b2u(v >= c) << ((uint(i) + sh) & 63)
			}
		}
		dst[w] = word
	}
}

// maskNumField sets bit r where x[r-off] op coef*y[r-off] + c.
func maskNumField(dst []uint64, x, y []float64, op constraint.Op, coef, c float64, off, n int) {
	for w := range dst {
		lo, hi := max(w<<6, off), min(w<<6+64, n)
		xs, ys, sh := x[lo-off:hi-off], y[lo-off:hi-off], uint(lo-w<<6)
		ys = ys[:len(xs)]
		var word uint64
		switch op {
		case constraint.Eq:
			for i, v := range xs {
				word |= b2u(v == coef*ys[i]+c) << ((uint(i) + sh) & 63)
			}
		case constraint.Ne:
			for i, v := range xs {
				word |= b2u(v != coef*ys[i]+c) << ((uint(i) + sh) & 63)
			}
		case constraint.Lt:
			for i, v := range xs {
				word |= b2u(v < coef*ys[i]+c) << ((uint(i) + sh) & 63)
			}
		case constraint.Le:
			for i, v := range xs {
				word |= b2u(v <= coef*ys[i]+c) << ((uint(i) + sh) & 63)
			}
		case constraint.Gt:
			for i, v := range xs {
				word |= b2u(v > coef*ys[i]+c) << ((uint(i) + sh) & 63)
			}
		case constraint.Ge:
			for i, v := range xs {
				word |= b2u(v >= coef*ys[i]+c) << ((uint(i) + sh) & 63)
			}
		}
		dst[w] = word
	}
}

// maskStrField sets bit r where x[r-off] op y[r-off].
func maskStrField(dst []uint64, x, y []string, op constraint.Op, off, n int) {
	for w := range dst {
		lo, hi := max(w<<6, off), min(w<<6+64, n)
		xs, ys, sh := x[lo-off:hi-off], y[lo-off:hi-off], uint(lo-w<<6)
		ys = ys[:len(xs)]
		var word uint64
		switch op {
		case constraint.Eq:
			for i, v := range xs {
				word |= b2u(v == ys[i]) << ((uint(i) + sh) & 63)
			}
		case constraint.Ne:
			for i, v := range xs {
				word |= b2u(v != ys[i]) << ((uint(i) + sh) & 63)
			}
		case constraint.Lt:
			for i, v := range xs {
				word |= b2u(v < ys[i]) << ((uint(i) + sh) & 63)
			}
		case constraint.Le:
			for i, v := range xs {
				word |= b2u(v <= ys[i]) << ((uint(i) + sh) & 63)
			}
		case constraint.Gt:
			for i, v := range xs {
				word |= b2u(v > ys[i]) << ((uint(i) + sh) & 63)
			}
		case constraint.Ge:
			for i, v := range xs {
				word |= b2u(v >= ys[i]) << ((uint(i) + sh) & 63)
			}
		}
		dst[w] = word
	}
}

// nullMask fills m with bit r set where null[r].
func nullMask(m []uint64, null []bool) {
	for w := range m {
		var word uint64
		for i, v := range null[w<<6 : min(w<<6+64, len(null))] {
			word |= b2u(v) << (uint(i) & 63)
		}
		m[w] = word
	}
}

// clearNulls clears bit r of dst where the operand d rows back (0 or 1)
// is NULL: a NULL operand fails every comparison.
func clearNulls(dst, nulls []uint64, d uint) {
	var carry uint64
	for w, word := range nulls {
		dst[w] &^= word<<d | carry
		carry = word >> (64 - d)
	}
}
