package constraint

import (
	"math"
	"math/big"
	"math/bits"
	"sync/atomic"
)

// The numeric solver computes with exact arithmetic. Floating-point bound
// composition in the Floyd-Warshall closure is unsound: rounding along
// different paths can manufacture spurious strict tightenings (e.g.
// -7 + 6.1 < -0.9 in float64), flipping satisfiability and
// equality-detection answers.
//
// Exactness used to mean math/big.Rat everywhere, on the theory that the
// closure runs at compile time over a handful of variables and so costs
// nothing that matters. Measured on a never-seen statement it was half the
// statement: every bound composition allocated a Rat and ran a GCD, and a
// pattern's m² implication tests re-closed the same one- and two-atom
// predicates hundreds of times. Two things make exactness cheap instead:
//
//   - Every float64 is a dyadic rational, so all the constants of one
//     pattern scale to integers over one common power-of-two denominator.
//     The closure then runs on int64 words with overflow-checked adds:
//     equal values are equal words, no GCD, no allocation per bound.
//   - When the constants' exponents spread wider than a word, or a sum
//     overflows, the whole set of formulas is decided again in big.Rat.
//     Which arithmetic runs is that observed property of the input and
//     nothing else; both give the same answers (see arith_test.go).
//
// The other half — closing each predicate once instead of once per
// question — is prepared.go.

// num is one rational in the arithmetic of the arith that made it: the
// word w scaled by the arith's power of two, or r when the arith is big.
// Values are immutable; operations return new ones.
type num struct {
	w int64
	r *big.Rat
}

// arith is the number system one set of formulas is decided in, plus the
// storage its closures are cut from. Prepare draws one from a pool and
// returns it when the decisions are made, so a warm decision allocates
// almost nothing. It is not safe for concurrent use.
type arith struct {
	big bool
	// exp is the word scale: a word w stands for w·2^exp.
	exp int
	// overflow records that a constant or a sum did not fit a word; every
	// answer computed since is void and the caller re-decides in big.Rat.
	overflow bool
	// tmp closes the transient joint systems, one after another.
	tmp numSolver

	bounds   arena[bound]
	vars     arena[Var]
	closed   arena[closed]
	prepared arena[Prepared]
	ps       []*Prepared
}

// arena hands out slices cut from one buffer, which reset makes available
// again: the storage of everything that lives as long as one run.
type arena[T any] struct {
	buf  []T
	used int
}

// take returns n elements with no spare capacity, holding whatever an
// earlier run left there.
func (a *arena[T]) take(n int) []T {
	if a.used+n > len(a.buf) {
		// Slices already handed out keep the old buffer alive.
		a.buf, a.used = make([]T, max(2*len(a.buf), n, 16)), 0
	}
	out := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return out
}

// reset readies ar for a run in words scaled by 2^exp, or in big.Rat.
func (ar *arith) reset(big bool, exp int) {
	ar.big, ar.exp, ar.overflow = big, exp, false
	ar.bounds.used, ar.vars.used, ar.closed.used, ar.prepared.used = 0, 0, 0, 0
	ar.tmp = numSolver{} // its slices were the last run's
}

// wordBits bounds the magnitude of a scaled constant to 2^wordBits, which
// leaves negation and the overflow check of one add trivially safe.
const wordBits = 62

var ratZero = new(big.Rat)

// dyadic splits a finite float into f = mant·2^exp with mant odd (or
// 0, 0 for zero).
func dyadic(f float64) (mant int64, exp int) {
	b := math.Float64bits(f)
	mant, exp = int64(b&(1<<52-1)), int(b>>52&0x7ff)
	if exp == 0 {
		if mant == 0 {
			return 0, 0
		}
		exp = 1 // subnormal: no implicit leading bit
	} else {
		mant |= 1 << 52
	}
	tz := bits.TrailingZeros64(uint64(mant))
	mant, exp = mant>>tz, exp-1075+tz
	if b>>63 != 0 {
		mant = -mant
	}
	return mant, exp
}

func absLen(mant int64) int {
	if mant < 0 {
		mant = -mant
	}
	return bits.Len64(uint64(mant))
}

// wordScale returns the exponent that makes every numeric constant of fs
// an integer of at most wordBits bits, or false when there is none (the
// exponents spread too wide, or a constant is not finite) and the
// formulas must be decided in big.Rat.
func wordScale(fs []*Formula) (exp int, ok bool) {
	minExp, maxTop, any := 0, 0, false
	for _, f := range fs {
		for _, d := range f.Ds {
			for _, a := range d.Num {
				if math.IsInf(a.C, 0) || math.IsNaN(a.C) {
					return 0, false
				}
				mant, exp := dyadic(a.C)
				if mant == 0 {
					continue
				}
				top := exp + absLen(mant)
				if !any {
					minExp, maxTop, any = exp, top, true
					continue
				}
				minExp, maxTop = min(minExp, exp), max(maxTop, top)
			}
		}
	}
	return minExp, maxTop-minExp <= wordBits
}

// of converts a float constant exactly.
func (ar *arith) of(f float64) num {
	if ar.big {
		r := new(big.Rat).SetFloat64(f)
		if r == nil {
			panic("constraint: non-finite constant in an unvalidated system")
		}
		return num{r: r}
	}
	mant, exp := dyadic(f)
	sh := exp - ar.exp
	if mant != 0 && (sh < 0 || sh+absLen(mant) > wordBits) {
		ar.overflow = true
		return num{}
	}
	return num{w: mant << uint(sh)}
}

func (ar *arith) zero() num {
	if ar.big {
		return num{r: ratZero}
	}
	return num{}
}

func (ar *arith) add(a, b num) num {
	if ar.big {
		return num{r: new(big.Rat).Add(a.r, b.r)}
	}
	s := a.w + b.w
	if (a.w^s)&(b.w^s) < 0 {
		ar.overflow = true
	}
	return num{w: s}
}

func (ar *arith) neg(a num) num {
	if ar.big {
		return num{r: new(big.Rat).Neg(a.r)}
	}
	return num{w: -a.w}
}

func (a num) cmp(b num) int {
	if a.r != nil {
		return a.r.Cmp(b.r)
	}
	switch {
	case a.w < b.w:
		return -1
	case a.w > b.w:
		return 1
	}
	return 0
}

func (a num) sign() int {
	if a.r != nil {
		return a.r.Sign()
	}
	return a.cmp(num{})
}

// bound is an upper bound on a variable difference: X - Y ≤ c (strict ⇒ <).
// inf means "no bound".
type bound struct {
	c      num
	strict bool
	inf    bool
}

var noBound = bound{inf: true}

// tighterThan reports whether b is strictly tighter than o.
func (b bound) tighterThan(o bound) bool {
	if b.inf {
		return false
	}
	if o.inf {
		return true
	}
	if cmp := b.c.cmp(o.c); cmp != 0 {
		return cmp < 0
	}
	return b.strict && !o.strict
}

// numSolver holds the transitive closure of a difference-bound system over
// a dense set of local variable indices. Index 0 is the implicit "zero"
// variable used to encode constants: X op C becomes X op zero + C.
type numSolver struct {
	ar    *arith
	n     int
	bnd   []bound  // n*n, row-major: bnd[i*n+j] bounds Xi - Xj
	vars  []Var    // vars[i-1] is local index i's variable
	neq   []neqCon // disequalities Xi ≠ Xj + c
	atoms []Atom   // the original system, for conjoin-and-recheck tests
	unsat bool
}

type neqCon struct {
	i, j int
	c    num
}

const zeroIdx = 0

// index returns v's local index, or -1 when the system does not mention v.
// Systems have a handful of variables, so a scan beats a map.
func (s *numSolver) index(v Var) int {
	for i, u := range s.vars {
		if u == v {
			return i + 1
		}
	}
	return -1
}

func (s *numSolver) local(v Var) int {
	if v == NoVar {
		return zeroIdx
	}
	if i := s.index(v); i >= 0 {
		return i
	}
	s.vars = append(s.vars, v)
	return len(s.vars)
}

// build closes the conjunction of a and b (either may be empty).
func (s *numSolver) build(ar *arith, a, b []Atom) {
	s.ar, s.atoms = ar, a
	s.vars, s.neq, s.unsat = s.vars[:0], s.neq[:0], false
	if most := 2 * (len(a) + len(b)); cap(s.vars) < most {
		s.vars = ar.vars.take(most)[:0]
	}
	for _, atoms := range [2][]Atom{a, b} {
		for _, at := range atoms {
			s.local(at.X)
			s.local(at.Y)
		}
	}
	n := len(s.vars) + 1
	s.n = n
	if cap(s.bnd) < n*n {
		s.bnd = ar.bounds.take(n * n)
	}
	s.bnd = s.bnd[:n*n]
	for i := range s.bnd {
		s.bnd[i] = noBound
	}
	for i := 0; i < n; i++ {
		s.bnd[i*n+i] = bound{c: ar.zero()}
	}
	for _, atoms := range [2][]Atom{a, b} {
		for _, at := range atoms {
			s.addAtom(s.local(at.X), s.local(at.Y), at.Op, ar.of(at.C))
		}
	}
	s.close()
}

// addAtom records X op Y + c as difference bounds.
func (s *numSolver) addAtom(x, y int, op Op, c num) {
	switch op {
	case Le:
		s.tighten(x, y, bound{c: c})
	case Lt:
		s.tighten(x, y, bound{c: c, strict: true})
	case Ge:
		s.tighten(y, x, bound{c: s.ar.neg(c)})
	case Gt:
		s.tighten(y, x, bound{c: s.ar.neg(c), strict: true})
	case Eq:
		s.tighten(x, y, bound{c: c})
		s.tighten(y, x, bound{c: s.ar.neg(c)})
	case Ne:
		s.neq = append(s.neq, neqCon{i: x, j: y, c: c})
	}
}

func (s *numSolver) tighten(i, j int, b bound) {
	if b.tighterThan(s.bnd[i*s.n+j]) {
		s.bnd[i*s.n+j] = b
	}
}

// close computes the all-pairs tightest bounds (Floyd–Warshall) and the
// satisfiability flag. Variable counts in real queries are tiny (one per
// tuple field role), so O(n³) is fine and exact.
func (s *numSolver) close() {
	n, ar := s.n, s.ar
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			ik := s.bnd[i*n+k]
			if ik.inf {
				continue
			}
			for j := 0; j < n; j++ {
				// Bounds compose along a path: (X-Y ≤ a) ∧ (Y-Z ≤ b) ⇒
				// X-Z ≤ a+b, strict if either is strict.
				kj := s.bnd[k*n+j]
				if kj.inf {
					continue
				}
				via := bound{c: ar.add(ik.c, kj.c), strict: ik.strict || kj.strict}
				if via.tighterThan(s.bnd[i*n+j]) {
					s.bnd[i*n+j] = via
				}
			}
		}
	}
	// Negative (or zero-but-strict) self-cycle ⇒ unsatisfiable.
	for i := 0; i < n; i++ {
		d := s.bnd[i*n+i]
		if sg := d.c.sign(); sg < 0 || (sg == 0 && d.strict) {
			s.unsat = true
			return
		}
	}
	// Over the reals, a satisfiable convex system conjoined with
	// disequalities is unsatisfiable iff some disequality Xi ≠ Xj + c is
	// contradicted by a forced equality Xi - Xj = c.
	for _, ne := range s.neq {
		if s.forcedEqual(ne.i, ne.j, ne.c) {
			s.unsat = true
			return
		}
	}
}

// forcedEqual reports whether the closure forces Xi - Xj = c exactly.
func (s *numSolver) forcedEqual(i, j int, c num) bool {
	up := s.bnd[i*s.n+j] // Xi - Xj ≤ up
	lo := s.bnd[j*s.n+i] // Xj - Xi ≤ lo, i.e. Xi - Xj ≥ -lo
	if up.inf || lo.inf || up.strict || lo.strict {
		return false
	}
	return up.c.cmp(c) == 0 && lo.c.cmp(s.ar.neg(c)) == 0
}

// diff returns the tightest upper bound on Xa - Xb known to the system;
// variables not mentioned by the system are unconstrained.
func (s *numSolver) diff(a, b Var) bound {
	if a == b {
		return bound{c: s.ar.zero()}
	}
	x, y := zeroIdx, zeroIdx
	if a != NoVar {
		if x = s.index(a); x < 0 {
			return noBound
		}
	}
	if b != NoVar {
		if y = s.index(b); y < 0 {
			return noBound
		}
	}
	return s.bnd[x*s.n+y]
}

// impliesAtom reports whether the closed system entails atom a, by
// lookups in the closure (a ≠ conclusion closes one conjoined system in
// the arith's scratch).
func (s *numSolver) impliesAtom(a Atom) bool {
	if s.unsat {
		return true
	}
	up := s.diff(a.X, a.Y) // X - Y ≤ up
	lo := s.diff(a.Y, a.X) // Y - X ≤ lo  ⇒  X - Y ≥ -lo
	c := s.ar.of(a.C)
	negC := s.ar.neg(c)
	switch a.Op {
	case Le: // need X - Y ≤ c entailed
		return !up.inf && up.c.cmp(c) <= 0
	case Lt:
		return !up.inf && (up.c.cmp(c) < 0 || (up.c.cmp(c) == 0 && up.strict))
	case Ge: // need X - Y ≥ c, i.e. Y - X ≤ -c
		return !lo.inf && lo.c.cmp(negC) <= 0
	case Gt:
		return !lo.inf && (lo.c.cmp(negC) < 0 || (lo.c.cmp(negC) == 0 && lo.strict))
	case Eq:
		return !up.inf && !lo.inf && !up.strict && !lo.strict && up.c.cmp(c) == 0 && lo.c.cmp(negC) == 0
	case Ne:
		// Entailed iff conjoining the complementary equality is
		// unsatisfiable. This also catches entailment through recorded
		// disequalities, e.g. {X ≠ Y} ⇒ X ≠ Y.
		tmp := &s.ar.tmp
		tmp.build(s.ar, s.atoms, []Atom{{X: a.X, Op: Eq, Y: a.Y, C: a.C}})
		return tmp.unsat
	default:
		return false
	}
}

// --- string (dis)equality solver -----------------------------------------

// strSolver decides conjunctions of string (dis)equalities with a
// union-find over variables and literal nodes. The string domain is
// infinite, so the system is satisfiable iff no class contains two
// distinct literals and no disequality joins one class.
type strSolver struct {
	parent map[strNode]strNode
	neq    [][2]strNode
	unsat  bool
}

type strNode struct {
	v   Var    // valid when lit == false
	lit bool   // literal node?
	s   string // literal text
}

func nodeOfVar(v Var) strNode    { return strNode{v: v} }
func nodeOfLit(s string) strNode { return strNode{lit: true, s: s} }

// newStrSolver closes the conjunction of a and b (either may be empty).
func newStrSolver(a, b []StrAtom) *strSolver {
	s := &strSolver{parent: make(map[strNode]strNode)}
	for _, atoms := range [2][]StrAtom{a, b} {
		for _, a := range atoms {
			x := nodeOfVar(a.X)
			var y strNode
			if a.Y == NoVar {
				y = nodeOfLit(a.Lit)
			} else {
				y = nodeOfVar(a.Y)
			}
			switch a.Op {
			case Eq:
				s.union(x, y)
			case Ne:
				s.neq = append(s.neq, [2]strNode{x, y})
			default:
				// Ordered string comparisons are handled as opaque atoms by
				// the compiler; reaching here is a programming error.
				panic("constraint: ordered string atom in strSolver")
			}
		}
	}
	s.check()
	return s
}

func (s *strSolver) find(n strNode) strNode {
	p, ok := s.parent[n]
	if !ok || p == n {
		return n
	}
	r := s.find(p)
	s.parent[n] = r
	return r
}

func (s *strSolver) union(a, b strNode) {
	ra, rb := s.find(a), s.find(b)
	if ra == rb {
		return
	}
	// Keep literal roots so that literal conflicts surface as one class
	// with two literal ancestors via the merge below.
	if ra.lit && rb.lit {
		if ra.s != rb.s {
			s.unsat = true
		}
		s.parent[rb] = ra
		return
	}
	if rb.lit {
		ra, rb = rb, ra
	}
	s.parent[rb] = ra
}

func (s *strSolver) check() {
	if s.unsat {
		return
	}
	for _, ne := range s.neq {
		a, b := s.find(ne[0]), s.find(ne[1])
		if a == b {
			s.unsat = true
			return
		}
		if a.lit && b.lit && a.s == b.s {
			s.unsat = true
			return
		}
	}
}

func (s *strSolver) impliesAtom(a StrAtom) bool {
	if s.unsat {
		return true
	}
	x := s.find(nodeOfVar(a.X))
	var y strNode
	if a.Y == NoVar {
		y = s.find(nodeOfLit(a.Lit))
	} else {
		y = s.find(nodeOfVar(a.Y))
	}
	switch a.Op {
	case Eq:
		return x == y || (x.lit && y.lit && x.s == y.s)
	case Ne:
		// Entailed iff conjoining the equality is unsatisfiable: i.e. the
		// classes hold distinct literals, or a recorded disequality would
		// be violated by merging them.
		if x.lit && y.lit && x.s != y.s {
			return true
		}
		if x == y {
			return false
		}
		for _, ne := range s.neq {
			a1, b1 := s.find(ne[0]), s.find(ne[1])
			if (a1 == x && b1 == y) || (a1 == y && b1 == x) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// --- opaque atoms ----------------------------------------------------------

// opaqueConflict reports whether some atom of a is the complement of some
// atom of b (a and ¬a), which makes their conjunction unsatisfiable. With
// a and b the same list it tests one system against itself.
func opaqueConflict(a, b []OpaqueAtom) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Key == y.Key && x.Negated != y.Negated {
				return true
			}
		}
	}
	return false
}

// --- System-level decisions -------------------------------------------------

// queries counts conjunction-level decisions process-wide: every closure
// built and every implication answered from one. The observability layer
// diffs it around matrix computation to report how much implication work
// a compile performed.
var queries atomic.Int64

// Queries returns the process-wide count of solver decision queries.
func Queries() int64 { return queries.Load() }

// A System is the one-disjunct Formula, and decides as one.

// Satisfiable reports whether the conjunction has a model. Opaque atoms
// are treated as free booleans, so they make a system unsatisfiable only
// through a complementary pair.
func (s *System) Satisfiable() bool { return FromSystem(s).Satisfiable() }

// Tautology reports whether the conjunction is valid (equivalent to TRUE):
// every atom must individually be a tautology, i.e. its negation must be
// unsatisfiable. Opaque atoms are never tautologies.
func (s *System) Tautology() bool { return FromSystem(s).Tautology() }

// Implies reports p ⇒ q: every model of p satisfies q. An unsatisfiable p
// implies everything (callers that need the paper's "p ≢ F" guard test
// Satisfiable separately).
func (p *System) Implies(q *System) bool { return FromSystem(p).Implies(FromSystem(q)) }

// Excludes reports p ⇒ ¬q, i.e. p ∧ q is unsatisfiable.
func (p *System) Excludes(q *System) bool { return FromSystem(p).Excludes(FromSystem(q)) }

// NegImplies reports ¬p ⇒ q. Since p is a conjunction, ¬p is the
// disjunction of its atoms' negations, so ¬p ⇒ q iff for every atom a of
// p and b of q, ¬a ∧ ¬b is unsatisfiable. An empty p (TRUE) has an
// unsatisfiable negation, which implies everything.
func (p *System) NegImplies(q *System) bool { return FromSystem(p).NegImplies(FromSystem(q)) }

// NegExcludes reports ¬p ⇒ ¬q, which is the contrapositive of q ⇒ p.
func (p *System) NegExcludes(q *System) bool { return q.Implies(p) }

// ErrNonFinite reports a numeric atom whose constant is NaN or ±Inf: such
// a constant is no rational, so the solver cannot bound anything by it.
var ErrNonFinite = errorString("constraint: non-finite constant in atom")

var errStrOrder = errorString("constraint: ordered string atoms are not supported; use an opaque atom")

// Validate checks a system for malformed atoms (non-finite constants,
// ordered string operators). The solvers assume validated input.
func (s *System) Validate() error {
	for _, a := range s.Num {
		if math.IsNaN(a.C) || math.IsInf(a.C, 0) {
			return ErrNonFinite
		}
	}
	for _, a := range s.Str {
		if a.Op != Eq && a.Op != Ne {
			return errStrOrder
		}
	}
	return nil
}

type errorString string

func (e errorString) Error() string { return string(e) }
