package constraint

import (
	"sort"
	"strings"
)

// Formula is a predicate in disjunctive normal form: a disjunction of
// conjunctive Systems. It powers the paper's §8 extension to disjunctive
// conditions ("we have also extended the OPS algorithm to optimize
// patterns containing disjunctive conditions"): pattern elements whose
// conditions contain OR compile to multi-disjunct formulas instead of
// degrading to opaque atoms.
//
// A plain conjunction is the one-disjunct formula; TRUE is the
// one-disjunct formula over the empty system; FALSE is the empty
// disjunction. Decision procedures are sound and, where they must expand
// products (DNF distribution, negations), capped: past the cap the
// formula is marked inexact — a weakening — and every decision that
// would need the exact predicate on the certifying side answers "don't
// know", which the matrix computation maps to U. Conservative, never
// wrong.
type Formula struct {
	Ds []*System
	// inexact marks a formula that is weaker than the predicate it
	// stands for (information was dropped at a cap). An inexact formula
	// may serve as a premise (weakening the premise preserves
	// soundness of p ⇒ q and of joint-unsatisfiability) but never as a
	// certified conclusion.
	inexact bool
}

// combosCap caps DNF distribution products and negation expansions
// (¬(D₁ ∨ …) is a product over the disjuncts' atoms). Query conditions
// are tiny, so real patterns never hit the cap.
const combosCap = 512

// True returns the TRUE formula.
func True() *Formula { return &Formula{Ds: []*System{{}}} }

// FromSystem wraps a conjunction as a one-disjunct formula.
func FromSystem(s *System) *Formula { return &Formula{Ds: []*System{s}} }

// OrF returns the disjunction of formulas (concatenated disjuncts).
func OrF(fs ...*Formula) *Formula {
	out := &Formula{}
	for _, f := range fs {
		out.Ds = append(out.Ds, f.Ds...)
		out.inexact = out.inexact || f.inexact
	}
	return out
}

// AndF returns the conjunction of formulas by distributing into DNF.
// Past the cap it degrades to an inexact TRUE (sound weakening).
func AndF(fs ...*Formula) *Formula {
	acc := True()
	for _, f := range fs {
		var next []*System
		for _, a := range acc.Ds {
			for _, b := range f.Ds {
				next = append(next, And(a, b))
				if len(next) > combosCap {
					t := True()
					t.inexact = true
					return t
				}
			}
		}
		acc = &Formula{Ds: next, inexact: acc.inexact || f.inexact}
	}
	return acc
}

// Inexact reports whether information was dropped building the formula.
func (f *Formula) Inexact() bool { return f.inexact }

// Clone returns a deep copy.
func (f *Formula) Clone() *Formula {
	out := &Formula{Ds: make([]*System, len(f.Ds)), inexact: f.inexact}
	for i, d := range f.Ds {
		out.Ds[i] = d.Clone()
	}
	return out
}

// The decisions below each prepare their operands (prepared.go) and ask
// once; a caller with many questions about the same formulas prepares
// them itself and asks the Prepared forms.

// Satisfiable reports whether any disjunct has a model; see
// Prepared.Satisfiable.
func (f *Formula) Satisfiable() (ok bool) {
	Prepare([]*Formula{f}, func(ps []*Prepared) { ok = ps[0].Satisfiable() })
	return ok
}

// Implies reports p ⇒ q, soundly; see Prepared.Implies.
func (p *Formula) Implies(q *Formula) (ok bool) {
	Prepare([]*Formula{p, q}, func(ps []*Prepared) { ok = ps[0].Implies(ps[1]) })
	return ok
}

// Excludes reports p ⇒ ¬q; see Prepared.Excludes.
func (p *Formula) Excludes(q *Formula) (ok bool) {
	Prepare([]*Formula{p, q}, func(ps []*Prepared) { ok = ps[0].Excludes(ps[1]) })
	return ok
}

// NegImplies reports ¬p ⇒ q; see Prepared.NegImplies.
func (p *Formula) NegImplies(q *Formula) (ok bool) {
	Prepare([]*Formula{p, q}, func(ps []*Prepared) { ok = ps[0].NegImplies(ps[1]) })
	return ok
}

// Tautology reports whether the formula is valid; see Prepared.Tautology.
func (p *Formula) Tautology() (ok bool) {
	Prepare([]*Formula{p}, func(ps []*Prepared) { ok = ps[0].Tautology() })
	return ok
}

// negSystems returns the DNF of ¬f: one conjunction per way of choosing
// one atom from each disjunct, holding the chosen atoms negated. It
// reports false when their number exceeds combosCap.
func (f *Formula) negSystems() ([]System, bool) {
	total := 1
	for _, d := range f.Ds {
		n := d.Len()
		if n == 0 {
			// ¬TRUE = FALSE: no choices; ∀-properties hold vacuously.
			return nil, true
		}
		total *= n
		if total > combosCap {
			return nil, false
		}
	}
	out := make([]System, total)
	nums := make([]Atom, 0, total*len(f.Ds)) // backs every out[i].Num
	choice := make([]int, len(f.Ds))
	for i := range out {
		sys, start := &out[i], len(nums)
		for di, d := range f.Ds {
			k := choice[di]
			switch {
			case k < len(d.Num):
				nums = append(nums, d.Num[k].Negate())
			case k < len(d.Num)+len(d.Str):
				sys.AddStr(d.Str[k-len(d.Num)].Negate())
			default:
				sys.AddOpaque(d.Opaque[k-len(d.Num)-len(d.Str)].Negate())
			}
		}
		sys.Num = nums[start:len(nums):len(nums)]
		// Advance the mixed-radix counter.
		for di := range choice {
			if choice[di]++; choice[di] < f.Ds[di].Len() {
				break
			}
			choice[di] = 0
		}
	}
	return out, true
}

// String renders the DNF with disjuncts sorted for stable output.
func (f *Formula) String() string {
	if len(f.Ds) == 0 {
		return "FALSE"
	}
	var s string
	if len(f.Ds) == 1 {
		s = f.Ds[0].String()
	} else {
		parts := make([]string, len(f.Ds))
		for i, d := range f.Ds {
			parts[i] = "(" + d.String() + ")"
		}
		sort.Strings(parts)
		s = strings.Join(parts, " OR ")
	}
	if f.inexact {
		s += " [inexact]"
	}
	return s
}
