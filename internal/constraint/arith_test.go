package constraint

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// decisions asks every question the matrices ask, of p and q both ways.
func decisions(ps []*Prepared) [10]bool {
	p, q := ps[0], ps[1]
	return [10]bool{
		p.Satisfiable(), q.Satisfiable(),
		p.Implies(q), q.Implies(p),
		p.Excludes(q), q.Excludes(p),
		p.NegImplies(q), q.NegImplies(p),
		p.Tautology(), q.Tautology(),
	}
}

// bothArithmetics decides fs in big.Rat and, when the constants share a
// word scale, in machine words, forcing each through run's parameter. It
// fails the test when a completed word run disagrees with big.Rat or the
// public Prepare with either, and reports whether words decided it.
func bothArithmetics(t *testing.T, label string, fs []*Formula) (words bool) {
	t.Helper()
	var ref, got [10]bool
	if !new(arith).run(true, 0, fs, func(ps []*Prepared) { ref = decisions(ps) }) {
		t.Fatalf("%s: big.Rat run reported overflow", label)
	}
	if exp, ok := wordScale(fs); ok {
		words = new(arith).run(false, exp, fs, func(ps []*Prepared) { got = decisions(ps) })
		if words && got != ref {
			t.Fatalf("%s: words %v, big.Rat %v\np = %s\nq = %s", label, got, ref, fs[0], fs[1])
		}
	}
	Prepare(fs, func(ps []*Prepared) { got = decisions(ps) })
	if got != ref {
		t.Fatalf("%s: Prepare %v, big.Rat %v\np = %s\nq = %s", label, got, ref, fs[0], fs[1])
	}
	return words
}

func oneDisjunct(atoms ...Atom) *Formula { return FromSystem(&System{Num: atoms}) }

// TestArithmeticsAgree is the differential of the two exact arithmetics:
// seeded random formula pairs over every operator, strict and non-strict
// bounds mixed, decimal constants that drift in float64, and — in a small
// share of cases — constants no word scale can hold together. Words must
// decide at least nine cases in ten and big.Rat must be fallen back to.
func TestArithmeticsAgree(t *testing.T) {
	// The exact_test.go drift cases, as formula pairs.
	drift := oneDisjunct(NewAtomVC(1, Ne, 0.9), NewAtomVC(0, Eq, 7))
	chain := oneDisjunct(NewAtomVVC(0, Eq, 1, 0.1), NewAtomVVC(1, Eq, 2, 0.1), NewAtomVVC(2, Eq, 3, 0.1))
	fixed := [][]*Formula{
		{drift, drift},
		{drift, oneDisjunct(NewAtomVC(1, Eq, 0.9))},
		{chain, oneDisjunct(NewAtomVVC(0, Le, 3, 0.31), NewAtomVVC(0, Ge, 3, 0.29))},
		{chain, oneDisjunct(NewAtomVVC(0, Eq, 3, 0.1+0.1+0.1))},
		{oneDisjunct(NewAtomVC(0, Lt, 0.98)), oneDisjunct(NewAtomVC(0, Ge, 0.98))},
	}
	for i, fs := range fixed {
		if !bothArithmetics(t, "fixed", fs) {
			t.Errorf("fixed case %d fell back to big.Rat", i)
		}
	}

	// Cases only big.Rat can decide, for the reason each names.
	fallbacks := map[string][]*Formula{
		"exponent spread": {oneDisjunct(NewAtomVC(0, Lt, 1e-300)), oneDisjunct(NewAtomVC(0, Gt, 1e300))},
		"subnormal":       {oneDisjunct(NewAtomVC(0, Le, 5e-324)), oneDisjunct(NewAtomVC(0, Ge, 1))},
		"sum overflow": {
			oneDisjunct(NewAtomVVC(0, Le, 1, 0x1p61), NewAtomVVC(1, Le, 2, 0x1p61), NewAtomVVC(2, Le, 3, 0x1p61), NewAtomVVC(3, Le, 4, 0x1p61)),
			oneDisjunct(NewAtomVVC(0, Ge, 4, 1)), // an odd constant pins the scale at 2^0
		},
	}
	for name, fs := range fallbacks {
		if bothArithmetics(t, name, fs) {
			t.Errorf("%s: decided in words, want the big.Rat fallback", name)
		}
	}

	ops := []Op{Eq, Ne, Lt, Le, Gt, Ge}
	common := []float64{0, 1, -1, 2, 3, -3, 7, -7, 0.5, 0.25, 0.1, 0.3, 0.9, -0.9, 6.1, 0.98, 1.02, 1 / 0.98, 40, 50}
	extreme := []float64{1e300, -1e300, 1e-300, 5e-324, math.MaxFloat64, 0x1p61, -0x1p61, 0x1p-1000, 1e18, 1e-6}
	r := rand.New(rand.NewSource(19))
	const trials = 4000
	words, fell := 0, 0
	for trial := 0; trial < trials; trial++ {
		pool := common
		if r.Intn(16) == 0 {
			pool = append(append([]float64(nil), common...), extreme...)
		}
		atom := func() Atom {
			x, c := Var(r.Intn(4)), pool[r.Intn(len(pool))]
			if r.Intn(3) == 0 {
				return NewAtomVC(x, ops[r.Intn(6)], c)
			}
			return NewAtomVVC(x, ops[r.Intn(6)], Var(r.Intn(4)), c)
		}
		formula := func() *Formula {
			f := &Formula{}
			for d := 1 + r.Intn(2); d > 0; d-- {
				s := &System{}
				for n := 1 + r.Intn(3); n > 0; n-- {
					s.AddNum(atom())
				}
				f.Ds = append(f.Ds, s)
			}
			return f
		}
		if bothArithmetics(t, "random", []*Formula{formula(), formula()}) {
			words++
		} else {
			fell++
		}
	}
	if words*10 < trials*9 {
		t.Errorf("words decided %d of %d cases, want at least 90%%", words, trials)
	}
	if fell == 0 {
		t.Error("no random case fell back to big.Rat")
	}
	t.Logf("words decided %d of %d random cases, big.Rat %d", words, trials, fell)
}

// TestDyadic pins the exact split of a float into odd mantissa and
// exponent, on which the word scale rests.
func TestDyadic(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 3, 0.1, -0.9, 6.1, 1e300, -1e-300, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64 * 3, 0x1p61} {
		mant, exp := dyadic(f)
		if f != 0 && mant%2 == 0 {
			t.Errorf("dyadic(%g): mantissa %d is even", f, mant)
		}
		if got := math.Ldexp(float64(mant), exp); got != f {
			t.Errorf("dyadic(%g) = %d·2^%d = %g", f, mant, exp, got)
		}
	}
}

// TestValidateRejectsNonFinite is the solver-side half of the ±Inf
// regression: a constant that is no rational is a typed error of
// Validate, which the pattern compiler calls before the solver runs.
func TestValidateRejectsNonFinite(t *testing.T) {
	for _, c := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		s := &System{Num: []Atom{NewAtomVC(0, Lt, 1), NewAtomVVC(0, Gt, 1, c)}}
		if err := s.Validate(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("constant %g: Validate = %v, want ErrNonFinite", c, err)
		}
	}
	if err := (&System{Num: []Atom{NewAtomVC(0, Lt, math.MaxFloat64)}}).Validate(); err != nil {
		t.Errorf("largest finite constant rejected: %v", err)
	}
}
