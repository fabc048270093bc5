package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

// condPool builds a small pool of conditions so that random patterns
// repeat predicates across elements — repeated predicates are what drive
// the θ = 1 entries, deep next() values, and count-rebasing rollbacks
// where star/plain alignment bugs live (one such bug was found by an
// earlier version of this test; see core/star.go).
func condPool(r *rand.Rand) []([]pattern.Cond) {
	ratio := func(op constraint.Op, coef float64) pattern.Cond {
		return pattern.FieldScaled(0, pattern.Cur, op, coef, 0, pattern.Prev)
	}
	pool := [][]pattern.Cond{
		{ratio(constraint.Ge, 0.98)},                             // flat-or-up
		{ratio(constraint.Lt, 0.98)},                             // fall
		{ratio(constraint.Gt, 1.02)},                             // rise
		{ratio(constraint.Gt, 0.98), ratio(constraint.Lt, 1.02)}, // flat band
		{pattern.FieldConst(0, pattern.Cur, constraint.Gt, 3)},
		{pattern.FieldConst(0, pattern.Cur, constraint.Lt, 6)},
		{pattern.FieldField(0, pattern.Cur, constraint.Gt, 0, pattern.Prev, 0)},
		{pattern.FieldField(0, pattern.Cur, constraint.Lt, 0, pattern.Prev, 0)},
		{pattern.FieldConst(0, pattern.Cur, constraint.Eq, 5)},
		// Disjunctive conditions (§8 extension): big move either way,
		// and price outside a band.
		{pattern.Or(
			[]pattern.Cond{ratio(constraint.Lt, 0.98)},
			[]pattern.Cond{ratio(constraint.Gt, 1.02)},
		)},
		{pattern.Or(
			[]pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Lt, 3)},
			[]pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Gt, 7)},
		)},
	}
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// structuredPattern draws elements from the pool, repeating entries, with
// random star flags; lengths up to 9 like the paper's Example 10.
func structuredPattern(t testing.TB, r *rand.Rand, opts pattern.Options) *pattern.Pattern {
	t.Helper()
	pool := condPool(r)
	m := 2 + r.Intn(8)
	elems := make([]pattern.Element, m)
	for e := 0; e < m; e++ {
		elems[e] = pattern.Element{
			Name:  fmt.Sprintf("E%d", e),
			Star:  r.Intn(2) == 0,
			Local: pool[r.Intn(len(pool))],
		}
	}
	opts.PositiveColumns = []string{"price"}
	p, err := pattern.Compile(priceSchema(), elems, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// walkSeq produces a small geometric walk whose ±2% moves exercise the
// ratio conditions of the pool.
func walkSeq(r *rand.Rand, n int) []storage.Row {
	out := make([]storage.Row, n)
	p := 5.0
	for i := range out {
		out[i] = storage.Row{storage.NewFloat(p)}
		step := 1 + (r.Float64()-0.5)*0.08
		p *= step
		if p < 1 {
			p = 1
		}
		if p > 25 {
			p = 25
		}
	}
	return out
}

// TestOPSEquivalenceStructured is the heavy-duty equivalence fuzz: long
// star-heavy patterns with repeated predicates over ratio-structured
// walks, against the naive reference.
func TestOPSEquivalenceStructured(t *testing.T) {
	r := rand.New(rand.NewSource(2024))
	trials := 3000
	if testing.Short() {
		trials = 400
	}
	for trial := 0; trial < trials; trial++ {
		opts := pattern.Options{MissingPrevTrue: trial%2 == 0}
		p := structuredPattern(t, r, opts)
		tables := core.Compute(p)
		seq := walkSeq(r, 20+r.Intn(120))
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			nm, ns := NewNaive(p, policy).FindAll(seq)
			om, os := NewOPS(p, tables, OPSConfig{Policy: policy}).FindAll(seq)
			if !matchesEqual(nm, om) {
				t.Fatalf("trial %d (%s, policy %s): matches differ\npattern %s\ntables:\n%s\nnaive: %s\nops:   %s\nseq: %v",
					trial, p, policy, explain(p), tables.Explain(), fmtMatches(nm), fmtMatches(om), seqVals(seq))
			}
			if os.PredEvals > ns.PredEvals {
				t.Fatalf("trial %d: OPS (%d evals) worse than naive (%d)\npattern %s",
					trial, os.PredEvals, ns.PredEvals, explain(p))
			}
			// The last-row-skip extension must also be exact, and must
			// never evaluate more than stock OPS.
			sm, ss := NewOPS(p, tables, OPSConfig{Policy: policy, Variant: LastRowSkip}).FindAll(seq)
			if !matchesEqual(nm, sm) {
				t.Fatalf("trial %d (%s, policy %s): LastRowSkip diverged\npattern %s\ntables:\n%s\nnaive: %s\nskip:  %s\nseq: %v",
					trial, p, policy, explain(p), tables.Explain(), fmtMatches(nm), fmtMatches(sm), seqVals(seq))
			}
			if ss.PredEvals > os.PredEvals {
				t.Fatalf("trial %d: LastRowSkip (%d evals) worse than OPS (%d)\npattern %s",
					trial, ss.PredEvals, os.PredEvals, explain(p))
			}
		}
	}
}

// doubleBottomShape builds the Example 10 element structure (one plain
// element, seven stars, one plain element) over the price schema.
func doubleBottomShape() *pattern.Pattern {
	b := pattern.NewBuilder(priceSchema()).WithOptions(pattern.Options{PositiveColumns: []string{"price"}})
	flat := func() []pattern.Cond {
		return []pattern.Cond{b.CmpPrevScaled("price", constraint.Gt, 0.98), b.CmpPrevScaled("price", constraint.Lt, 1.02)}
	}
	b.Elem("X", b.CmpPrevScaled("price", constraint.Ge, 0.98)).
		Star("Y", b.CmpPrevScaled("price", constraint.Lt, 0.98)).
		Star("Z", flat()...).
		Star("T", b.CmpPrevScaled("price", constraint.Gt, 1.02)).
		Star("U", flat()...).
		Star("V", b.CmpPrevScaled("price", constraint.Lt, 0.98)).
		Star("W", flat()...).
		Star("R", b.CmpPrevScaled("price", constraint.Gt, 1.02)).
		Elem("S", b.CmpPrevScaled("price", constraint.Le, 1.02))
	return b.MustBuild()
}

// TestOPSEquivalenceDoubleBottomShape fuzzes the exact Example 10 element
// structure over many random walks — the configuration where the
// star-row/plain-column certification bug was found.
func TestOPSEquivalenceDoubleBottomShape(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := doubleBottomShape()
	tables := core.Compute(p)

	trials := 300
	if testing.Short() {
		trials = 50
	}
	for trial := 0; trial < trials; trial++ {
		seq := walkSeq(r, 100+r.Intn(400))
		nm, _ := NewNaive(p, SkipPastLastRow).FindAll(seq)
		om, _ := NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow}).FindAll(seq)
		if !matchesEqual(nm, om) {
			t.Fatalf("trial %d: double-bottom shape diverged\nnaive: %s\nops:   %s",
				trial, fmtMatches(nm), fmtMatches(om))
		}
	}
}
