package constraint

import (
	"slices"
	"sync"
)

// A pattern's θ/φ matrices ask m² questions of the same m predicates.
// Asked of bare Formulas, every question closes its operands again — the
// paper takes those closures to be cheap, and on a cold statement they
// were most of the compile. A Prepared is a Formula closed at most once:
// each disjunct's difference-bound closure, string union-find and opaque
// set, built when a question first needs them, beside the DNF of its
// negation and whether it is a tautology. Implication and satisfiability
// are then lookups in those closures; only a joint question (is p ∧ q
// satisfiable?) closes anything new, in scratch the arithmetic reuses.

// closed is one conjunction with its decision state.
type closed struct {
	sys *System
	num numSolver  // closure of sys.Num; unbuilt when empty: it bounds nothing
	str *strSolver // closure of sys.Str; nil when empty
	sat bool
}

// Prepared is a Formula under one arithmetic, answering for the Formula as
// it was when prepared, and only against a Prepared from the same Prepare
// call. Not safe for concurrent use.
type Prepared struct {
	f  *Formula
	ar *arith
	// ds is f.Ds closed, nil until disjuncts builds it.
	ds []closed
	// neg is the DNF of ¬f once negState says so: negBuilt, or negCapped
	// when the expansion exceeds combosCap.
	neg      []System
	negState uint8
	// taut caches Tautology: 0 unknown, else tautYes or tautNo.
	taut uint8
}

const (
	negBuilt = iota + 1
	negCapped
)

const (
	tautYes = iota + 1
	tautNo
)

// Prepare puts every formula of fs under one arithmetic and calls fn with
// the prepared forms, fs[i] as ps[i]; they are valid until fn returns. It
// runs fn in machine words when the constants of fs share a word scale,
// and again in big.Rat if a sum then overflowed, so fn must compute its
// answers afresh from ps on every call and may be called twice.
func Prepare(fs []*Formula, fn func(ps []*Prepared)) {
	ar := arithPool.Get().(*arith)
	defer arithPool.Put(ar)
	if exp, ok := wordScale(fs); !ok || !ar.run(false, exp, fs, fn) {
		ar.run(true, 0, fs, fn)
	}
}

var arithPool = sync.Pool{New: func() any { return new(arith) }}

// run prepares fs in the given arithmetic and calls fn; it reports false
// when a word overflowed, which voids whatever fn computed.
func (ar *arith) run(big bool, exp int, fs []*Formula, fn func(ps []*Prepared)) bool {
	ar.reset(big, exp)
	ar.ps = ar.ps[:0]
	slab := ar.prepared.take(len(fs))
	for i := range slab {
		slab[i] = Prepared{f: fs[i], ar: ar}
		ar.ps = append(ar.ps, &slab[i])
	}
	fn(ar.ps)
	return !ar.overflow
}

// jointSat reports whether d ∧ e has a model: the one question no
// retained closure answers. Opaque atoms are free booleans, so they make
// a conjunction unsatisfiable only through a complementary pair.
func (ar *arith) jointSat(d, e *System) bool {
	queries.Add(1)
	if opaqueConflict(d.Opaque, d.Opaque) || opaqueConflict(d.Opaque, e.Opaque) || opaqueConflict(e.Opaque, e.Opaque) {
		return false
	}
	if len(d.Num)+len(e.Num) > 0 {
		if ar.tmp.build(ar, d.Num, e.Num); ar.tmp.unsat {
			return false
		}
	}
	return len(d.Str)+len(e.Str) == 0 || !newStrSolver(d.Str, e.Str).unsat
}

// trueSys is the empty conjunction.
var trueSys System

// disjuncts returns p's disjuncts, closed on the first call.
func (p *Prepared) disjuncts() []closed {
	if p.ds == nil && len(p.f.Ds) > 0 {
		p.ds = p.ar.closed.take(len(p.f.Ds))
		for i, s := range p.f.Ds {
			queries.Add(1)
			c := &p.ds[i]
			*c = closed{sys: s, sat: !opaqueConflict(s.Opaque, s.Opaque)}
			c.num.ar = p.ar
			if len(s.Num) > 0 {
				c.num.build(p.ar, s.Num, nil)
				c.sat = c.sat && !c.num.unsat
			}
			if len(s.Str) > 0 {
				c.str = newStrSolver(s.Str, nil)
				c.sat = c.sat && !c.str.unsat
			}
		}
	}
	return p.ds
}

// implies reports d ⇒ e for a satisfiable d, atom by atom from d's
// closures.
func (d *closed) implies(e *System) bool {
	queries.Add(1)
	for _, b := range e.Num {
		if !d.num.impliesAtom(b) {
			return false
		}
	}
	for _, b := range e.Str {
		if d.str == nil {
			d.str = newStrSolver(nil, nil)
		}
		if !d.str.impliesAtom(b) {
			return false
		}
	}
	for _, b := range e.Opaque {
		if !slices.Contains(d.sys.Opaque, b) {
			return false
		}
	}
	return true
}

// negations returns the disjuncts of ¬p, and false when their number
// exceeds combosCap.
func (p *Prepared) negations() ([]System, bool) {
	if p.negState == 0 {
		p.negState = negCapped
		if neg, complete := p.f.negSystems(); complete {
			p.neg, p.negState = neg, negBuilt
		}
	}
	return p.neg, p.negState == negBuilt
}

// Satisfiable reports whether any disjunct has a model. For inexact
// formulas this may overestimate (the dropped constraints could have
// made it unsatisfiable), which every caller tolerates: the optimizer
// only uses certain *un*satisfiability, and that direction is sound.
func (p *Prepared) Satisfiable() bool {
	for _, d := range p.disjuncts() {
		if d.sat {
			return true
		}
	}
	return false
}

// Implies reports p ⇒ q, soundly: every satisfiable disjunct of p must
// imply some disjunct of q. An inexact premise is fine (weakening the
// premise preserves the implication); an inexact conclusion can never be
// certified. (Also incomplete by construction: a disjunct whose models
// split across several q-disjuncts is not recognized; the optimizer then
// sees U instead of 1.)
func (p *Prepared) Implies(q *Prepared) bool {
	if q.f.inexact {
		return false
	}
	ds := p.disjuncts()
	for i := range ds {
		d := &ds[i]
		if d.sat && !slices.ContainsFunc(q.f.Ds, d.implies) {
			return false
		}
	}
	return true
}

// Excludes reports p ⇒ ¬q: every (p-disjunct, q-disjunct) pair must be
// jointly unsatisfiable. Sound even for inexact operands (both sides are
// premises of a joint-unsatisfiability claim).
func (p *Prepared) Excludes(q *Prepared) bool {
	for _, d := range p.f.Ds {
		for _, e := range q.f.Ds {
			if p.ar.jointSat(d, e) {
				return false
			}
		}
	}
	return true
}

// NegImplies reports ¬p ⇒ q, i.e. ¬p ∧ ¬q is unsatisfiable: every
// combination of one negated atom per disjunct of p and of q must be
// jointly unsatisfiable. Inexact operands (on either side — the premise
// here is a *negation*, so weakening p strengthens ¬p) and cap overflow
// answer false (→ U).
func (p *Prepared) NegImplies(q *Prepared) bool {
	if p.f.inexact || q.f.inexact {
		return false
	}
	np, complete := p.negations()
	if !complete {
		return false
	}
	if len(np) == 0 {
		// ¬p is FALSE, which implies everything.
		return true
	}
	nq, complete := q.negations()
	if !complete {
		return false
	}
	for i := range np {
		for k := range nq {
			if p.ar.jointSat(&np[i], &nq[k]) {
				return false
			}
		}
	}
	return true
}

// Tautology reports whether the formula is valid: ¬p unsatisfiable.
// Inexact formulas are never certified valid.
func (p *Prepared) Tautology() bool {
	if p.taut == 0 {
		p.taut = tautNo
		np, complete := p.negations()
		if !p.f.inexact && complete && !slices.ContainsFunc(np, func(s System) bool { return p.ar.jointSat(&s, &trueSys) }) {
			p.taut = tautYes
		}
	}
	return p.taut == tautYes
}
