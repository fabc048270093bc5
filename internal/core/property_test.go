package core

import (
	"math"
	"math/big"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/logic"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// holdsExactly evaluates a local condition on the tuple pair (prev, cur)
// over the reals, in big.Rat: the semantics the implication engine
// certifies, free of the float rounding a runtime comparison of
// prev + C would add at extreme magnitudes.
func holdsExactly(c *pattern.Cond, prev, cur []float64) bool {
	field := func(col int, role pattern.Role) *big.Rat {
		if role == pattern.Prev {
			return new(big.Rat).SetFloat64(prev[col])
		}
		return new(big.Rat).SetFloat64(cur[col])
	}
	cmp := func(l, r *big.Rat) bool {
		switch d := l.Cmp(r); c.Op {
		case constraint.Eq:
			return d == 0
		case constraint.Ne:
			return d != 0
		case constraint.Lt:
			return d < 0
		case constraint.Le:
			return d <= 0
		case constraint.Gt:
			return d > 0
		default:
			return d >= 0
		}
	}
	switch c.Kind {
	case pattern.NumFieldConst:
		return cmp(field(c.LCol, c.LRole), new(big.Rat).SetFloat64(c.C))
	case pattern.NumFieldField:
		r := field(c.RCol, c.RRole)
		return cmp(field(c.LCol, c.LRole), r.Add(r, new(big.Rat).SetFloat64(c.C)))
	case pattern.NumFieldScaled:
		r := field(c.RCol, c.RRole)
		return cmp(field(c.LCol, c.LRole), r.Mul(r, new(big.Rat).SetFloat64(c.Coef)))
	case pattern.OrCond:
		for _, br := range c.Branches {
			all := true
			for i := range br {
				all = all && holdsExactly(&br[i], prev, cur)
			}
			if all {
				return true
			}
		}
		return false
	}
	panic("holdsExactly: unexpected condition kind")
}

func elemHoldsExactly(e *pattern.Element, prev, cur []float64) bool {
	for i := range e.Local {
		if !holdsExactly(&e.Local[i], prev, cur) {
			return false
		}
	}
	return true
}

// TestMatrixEntriesHoldOnSampledTuples is the property ROADMAP item 5
// asks of the optimizer's inputs: for random predicate pairs every
// decided entry — θ=1 (p_j ⇒ p_k), θ=0 (p_j ⇒ ¬p_k), φ=1 (¬p_j ⇒ p_k),
// φ=0 (¬p_j ⇒ ¬p_k) — holds on brute-force sampled tuples. Every other
// pair draws from a pool that also holds constants no machine word scale
// can hold together, so the property is checked across the word
// arithmetic and its big.Rat fallback alike; each of the four verdicts
// must be exercised with either pool.
func TestMatrixEntriesHoldOnSampledTuples(t *testing.T) {
	schema := storage.MustSchema(
		storage.Column{Name: "price", Type: storage.TypeFloat},
		storage.Column{Name: "vol", Type: storage.TypeFloat},
	)
	ops := []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}
	narrow := []float64{0, 1, 2, 3, 5, 8, 0.5, 0.1, 0.9, 6.1, 0.98, 1.02, -1, -0.9}
	wide := append([]float64{1e300, 1e-300, 5e-324, 0x1p61, 1e18}, narrow...)
	coefs := []float64{0.9, 0.98, 1, 1.02, 1.1, 2}
	r := rand.New(rand.NewSource(7))

	// decided[wide][verdict]: θ=1, θ=0, φ=1, φ=0.
	var decided [2][4]int
	for trial := 0; trial < 1500; trial++ {
		pool, side := narrow, trial%2
		if side == 1 {
			pool = wide
		}
		// The constants this pair mentions seed the sample values: entries
		// flip at and next to them.
		seeds := []float64{0.25, 1, 4}
		konst := func() float64 {
			c := pool[r.Intn(len(pool))]
			seeds = append(seeds, c)
			return c
		}
		var atom func(leaf bool) pattern.Cond
		atom = func(leaf bool) pattern.Cond {
			op, col := ops[r.Intn(len(ops))], r.Intn(2)
			switch k := r.Intn(8); {
			case k < 3:
				return pattern.FieldConst(col, pattern.Role(r.Intn(2)), op, konst())
			case k < 5:
				return pattern.FieldField(col, pattern.Cur, op, r.Intn(2), pattern.Prev, konst())
			case k < 7 || leaf:
				// On price (declared positive) this is the §6 ratio atom;
				// on vol it stays opaque to the solver.
				return pattern.FieldScaled(col, pattern.Cur, op, coefs[r.Intn(len(coefs))], col, pattern.Prev)
			default:
				return pattern.Or([]pattern.Cond{atom(true)}, []pattern.Cond{atom(true), atom(true)})
			}
		}
		elems := []pattern.Element{{Name: "A"}, {Name: "B"}}
		for n := 1 + r.Intn(2); n > 0; n-- {
			elems[0].Local = append(elems[0].Local, atom(false))
		}
		// B is unrelated to A one time in three; otherwise it is A with its
		// atoms' operators (and sometimes constants) redrawn, which is where
		// implications and exclusions between the two live.
		if r.Intn(3) == 0 {
			for n := 1 + r.Intn(2); n > 0; n-- {
				elems[1].Local = append(elems[1].Local, atom(false))
			}
		} else {
			for _, c := range elems[0].Local {
				if c.Kind != pattern.OrCond {
					c.Op = ops[r.Intn(len(ops))]
					if c.Kind != pattern.NumFieldScaled && r.Intn(3) == 0 {
						c.C = konst()
					}
				}
				elems[1].Local = append(elems[1].Local, c)
			}
		}
		p, err := pattern.Compile(schema, elems, pattern.Options{PositiveColumns: []string{"price"}})
		if err != nil {
			t.Fatal(err)
		}
		m := ComputeMatrices(p)

		// Sample values: each seed, its float neighbours, and sums and
		// differences of seed pairs; price samples keep to its positive
		// domain.
		var vals []float64
		for _, s := range seeds {
			vals = append(vals, s, math.Nextafter(s, math.Inf(1)), math.Nextafter(s, math.Inf(-1)), -s)
			for _, o := range seeds {
				vals = append(vals, s+o, s-o, s*o)
			}
		}
		for n := 0; n < 400; n++ {
			prev := []float64{math.Abs(vals[r.Intn(len(vals))]), vals[r.Intn(len(vals))]}
			cur := []float64{math.Abs(vals[r.Intn(len(vals))]), vals[r.Intn(len(vals))]}
			if prev[0] == 0 || cur[0] == 0 || math.IsInf(prev[0]+cur[0]+prev[1]+cur[1], 0) {
				continue
			}
			var holds [2]bool
			for e := range holds {
				holds[e] = elemHoldsExactly(&p.Elems[e], prev, cur)
			}
			for j := 1; j <= 2; j++ {
				for k := 1; k <= j; k++ {
					pj, pk := holds[j-1], holds[k-1]
					th, ph := m.Theta.At(j, k), m.Phi.At(j, k)
					bad := ""
					switch {
					case th == logic.True && pj && !pk:
						bad = "θ=1"
					case th == logic.False && pj && pk:
						bad = "θ=0"
					case ph == logic.True && !pj && !pk:
						bad = "φ=1"
					case ph == logic.False && !pj && pk:
						bad = "φ=0"
					}
					if bad != "" {
						t.Fatalf("trial %d: %s at [%d][%d] refuted by prev=%v cur=%v\n%s: %v\n%s: %v",
							trial, bad, j, k, prev, cur, p.Elems[0].Name, p.Elems[0].Local, p.Elems[1].Name, p.Elems[1].Local)
					}
				}
			}
		}
		th, ph := m.Theta.At(2, 1), m.Phi.At(2, 1)
		for v, hit := range [4]bool{th == logic.True, th == logic.False, ph == logic.True, ph == logic.False} {
			if hit {
				decided[side][v]++
			}
		}
	}
	for side, name := range [2]string{"narrow", "wide"} {
		for v, verdict := range [4]string{"θ=1", "θ=0", "φ=1", "φ=0"} {
			if decided[side][v] == 0 {
				t.Errorf("%s constants: no off-diagonal %s entry was ever decided", name, verdict)
			}
		}
	}
	t.Logf("off-diagonal entries decided [θ=1 θ=0 φ=1 φ=0]: narrow %v, wide %v", decided[0], decided[1])
}
