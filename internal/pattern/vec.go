// Selection bitmasks: the batch evaluator of a kernel's atoms (kernel.go
// has the row one). Each condition evaluates the entire projection into a
// []uint64 selection bitmask. Per element the condition masks AND together
// (disjunctions OR their per-branch ANDs), producing one mask per element
// whose bit i answers "does row i satisfy the element's local
// conditions?" — the verdict EvalElem computes from the same atoms, bit
// for bit, including the missing-predecessor policy and null handling.
// Executors then answer probes with a single bit test (plus
// cross-condition interpretation) and skip runs of zero bits by
// trailing-zeros iteration.
//
// A never-seen statement probes its masks once, so building them is its
// cost, and two things keep the build near the memory traffic it needs:
//
//   - An atom is data, not a closure. The comparison loops (maskConst,
//     maskNumField, maskStrField) are ordinary top-level functions over
//     sub-sliced columns: the operator is switched on once per 64-row
//     word, and a row costs a compare, a flag-set and a shift — no call,
//     no null test, no first-row test. Each projected column's nulls
//     become a bitmask once per cluster (nullMask), cleared from a
//     condition's mask word by word, and row 0's missing-predecessor
//     verdict is one OR after the loops.
//   - Patterns repeat themselves (Example 10's nine elements hold five
//     distinct condition lists). A kernel numbers its distinct conditions
//     and BuildMasks builds each once per cluster; a one-condition element
//     uses the condition's mask as its own, and elements with the same
//     list share one mask.
//
// Every compiled element has a mask. Opaque predicates have no atoms —
// they are arbitrary functions, so their verdicts cannot be precomputed
// soundly — and an element holding one is interpreted.
package pattern

import (
	"cmp"
	"slices"
	"sync"

	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

// vecAtom is the compiled form of one atomic condition, which both the
// row path (holds) and the mask builder (build) evaluate. It is
// comparable: equal atoms build equal masks.
type vecAtom struct {
	kind     CondKind
	op       constraint.Op
	lcol, ld int // left column and its row offset (cur 0, prev 1)
	rcol, rd int
	c, coef  float64
	lit      string
}

// vecCond is one local condition's compiled form: a single atom, or — for
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

// Elem returns element j's mask, nil when the element is not compiled
// (probes then take the interpreter).
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

// ElemHasCross reports whether element j carries cross conditions,
// which a mask cannot cover (they inspect earlier bindings).
func (k *Kernel) ElemHasCross(j int) bool { return k.elems[j].hasCross }

// PureSlots returns, per element, the slot of its mask in a MaskSet's
// slab when the mask alone answers the element's probes (compiled, no
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
	k.elemSlot = make([]int32, len(k.elems))
	k.pureSlot = make([]int32, len(k.elems))
	k.allPure = true
	own := int32(len(k.conds))
	for j := range k.elems {
		e := &k.elems[j]
		switch {
		case !e.ok:
			k.elemSlot[j] = -1
		case e.same != j:
			k.elemSlot[j] = k.elemSlot[e.same]
		case len(e.conds) == 1:
			k.elemSlot[j] = int32(e.conds[0])
		default:
			k.elemSlot[j] = own
			own++
		}
		k.pureSlot[j] = k.elemSlot[j]
		if e.hasCross {
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

// BuildMasks evaluates every compiled element of the kernel over the
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

// BuildRun builds what a partition memo keeps of a run of n clusters, the
// rows of the run's j-th cluster being rows(j): their mask sets, in one
// []MaskSet in run order. The sets' masks are carved from one []uint64,
// the disjunction scratch is one buffer for the run, and every cluster is
// decoded through one scratch projection, which nothing keeps: a search
// over the masks reads none. Nothing the run allocates is shared with
// another run, so rebuilding some clusters beside a shared slab writes
// none of it.
func (k *Kernel) BuildRun(n int, rows func(j int) []storage.Row) []MaskSet {
	if n <= 0 {
		return nil
	}
	words, longest := 0, 0
	for j := 0; j < n; j++ {
		r := len(rows(j))
		words += k.slots * storage.MaskWords(r)
		longest = max(longest, r)
	}
	sets := make([]MaskSet, n)
	slab := make([]uint64, words)
	scratch := make([]uint64, k.vecScratch*storage.MaskWords(longest))
	proj := k.scratchProjection()
	defer scratchProjections.Put(proj)
	proj.Grow(longest)
	for j := range sets {
		r := rows(j)
		proj.SetRows(r)
		need := k.slots * storage.MaskWords(len(r))
		sets[j] = MaskSet{k: k, slab: slab[:need:need], rows: len(r)}
		slab = slab[need:]
		k.fill(&sets[j], proj, scratch)
	}
	return sets
}

// scratchProjections holds the projections BuildRun decodes through. A
// never-seen statement builds its masks once, and a refresh rebuilds a
// handful of clusters as one run: the decode buffer is most of what such
// a run would allocate, and statements over one table mostly
// read the same few columns, so the buffer of one kernel's run usually
// fits the next kernel's.
var scratchProjections sync.Pool

// scratchProjection returns a pooled projection over this kernel's
// columns, or a new one.
func (k *Kernel) scratchProjection() *storage.Projection {
	if p, _ := scratchProjections.Get().(*storage.Projection); p != nil && p.Covers(k.p.Schema.Len(), k.numCols, k.strCols) {
		return p
	}
	return k.NewProjection()
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
	for ci := range k.conds {
		k.buildCondMask(proj, ms, &k.conds[ci], ms.slot(ci), branch, tmp, n)
	}
	for j := range k.elems {
		// Only an element that combines several conditions (or none) has a
		// mask of its own to build; the rest read a condition's or another
		// element's.
		e := &k.elems[j]
		if !e.ok || e.same != j || len(e.conds) == 1 {
			continue
		}
		em := ms.slot(int(k.elemSlot[j]))
		if len(e.conds) == 0 {
			storage.MaskFill(em, n)
			continue
		}
		copy(em, ms.slot(e.conds[0]))
		for _, ci := range e.conds[1:] {
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
// any cross conditions. An element without a mask — one that is not
// compiled — is interpreted, so no probe reads a projection. The verdict
// is identical to EvalElem's in every case.
func (k *Kernel) EvalElemMasked(j int, ms *MaskSet, ctx *EvalContext) bool {
	m := ms.Elem(j)
	if m == nil {
		return k.p.EvalElem(j, ctx)
	}
	return storage.MaskHas(m, ctx.Pos) && (!k.elems[j].hasCross || k.crossHolds(j, ctx))
}

// addElem compiles element idx's local conditions, numbering each against
// the kernel's distinct conditions, and registers the columns they read in
// numSet/strSet. An element with a condition that has no atom form is left
// uncompiled.
func (k *Kernel) addElem(idx int, numSet, strSet map[int]bool) {
	e, ek := &k.p.Elems[idx], &k.elems[idx]
	ek.hasCross = e.HasCross()
	vcs := make([]vecCond, len(e.Local))
	for i := range e.Local {
		var ok bool
		if vcs[i], ok = compileVecCond(&e.Local[i], numSet, strSet); !ok {
			return
		}
	}
	conds := make([]int, len(vcs))
	for i := range vcs {
		vc := &vcs[i]
		ci := slices.IndexFunc(k.conds, func(o vecCond) bool { return vc.equal(&o) })
		if ci < 0 {
			ci = len(k.conds)
			k.conds = append(k.conds, *vc)
			if vc.branches != nil {
				k.vecScratch = 2
			}
		}
		conds[i] = ci
	}
	same := slices.IndexFunc(k.elems[:idx], func(o elemKernel) bool { return o.ok && slices.Equal(o.conds, conds) })
	if same < 0 {
		same = idx
	}
	ek.conds, ek.ok, ek.same = conds, true, same
	k.compiled++
}

// compileVecCond builds the compiled form of one local condition.
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

// compileVecAtom builds the atom of one typed comparison; opaque and
// cross conditions have none.
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
		// One form, field op coef*field' + c.
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

// holds is the atom's verdict at row i of the projection, the row path's
// one evaluation of a condition. The missing-predecessor verdict (mpt)
// comes first — ld and rd are 0 for the current row and 1 for its
// predecessor, so only row 0 can lack one — then nulls, which fail, then
// the comparison: the order and expressions build evaluates per word.
func (a *vecAtom) holds(p *storage.Projection, i int, mpt bool) bool {
	li, ri := i-a.ld, i-a.rd
	if li < 0 || ri < 0 {
		return mpt
	}
	if p.Null[a.lcol][li] {
		return false
	}
	switch a.kind {
	case NumFieldConst:
		return cmpNum(p.Num[a.lcol][li], a.c, a.op)
	case NumFieldField:
		return !p.Null[a.rcol][ri] && cmpNum(p.Num[a.lcol][li], a.coef*p.Num[a.rcol][ri]+a.c, a.op)
	case StrFieldLit:
		return cmpStr(p.Str[a.lcol][li], a.lit, a.op)
	}
	return !p.Null[a.rcol][ri] && cmpStr(p.Str[a.lcol][li], p.Str[a.rcol][ri], a.op)
}

// holds is the condition's verdict at row i: its atom's, or for a
// disjunction whether every atom of some branch holds, as buildCondMask
// ORs the branches' ANDs.
func (c *vecCond) holds(p *storage.Projection, i int, mpt bool) bool {
	if c.branches == nil {
		return c.atom.holds(p, i, mpt)
	}
	for _, br := range c.branches {
		all := true
		for k := range br {
			if !br[k].holds(p, i, mpt) {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// build fills dst — a selection bitmask of storage.MaskWords(n) words —
// with the atom's verdict for every row of the projection, as holds gives
// it row by row: the missing-predecessor verdict (mpt) applies at row 0
// before the null check, nulls fail, and the compared expression is the
// same float/string expression. ms holds the projection's null bitmasks,
// built before any condition. Every word of dst is fully overwritten.
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
