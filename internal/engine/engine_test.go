package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/pattern"
	"sqlts/internal/storage"
	"sqlts/internal/testutil"
)

// priceSchema is a single-column numeric schema for synthetic sequences.
func priceSchema() *storage.Schema {
	return storage.MustSchema(storage.Column{Name: "price", Type: storage.TypeFloat})
}

// rows converts a price series into rows.
func rows(prices ...float64) []storage.Row {
	out := make([]storage.Row, len(prices))
	for i, p := range prices {
		out[i] = storage.Row{storage.NewFloat(p)}
	}
	return out
}

// example4 builds the paper's Example 4 pattern over the price column.
func example4(t testing.TB, opts pattern.Options) *pattern.Pattern {
	t.Helper()
	s := priceSchema()
	b := pattern.NewBuilder(s).WithOptions(opts)
	b.Elem("X", b.CmpPrev("price", constraint.Lt)).
		Elem("Y", b.CmpPrev("price", constraint.Lt),
			b.CmpConst("price", pattern.Cur, constraint.Gt, 40),
			b.CmpConst("price", pattern.Cur, constraint.Lt, 50)).
		Elem("Z", b.CmpPrev("price", constraint.Gt),
			b.CmpConst("price", pattern.Cur, constraint.Lt, 52)).
		Elem("T", b.CmpPrev("price", constraint.Gt))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// example8 builds (*X up, *Y down, *Z up) from the paper's Example 8.
func example8(t testing.TB, opts pattern.Options) *pattern.Pattern {
	t.Helper()
	s := priceSchema()
	b := pattern.NewBuilder(s).WithOptions(opts)
	b.Star("X", b.CmpPrev("price", constraint.Gt)).
		Star("Y", b.CmpPrev("price", constraint.Lt)).
		Star("Z", b.CmpPrev("price", constraint.Gt))
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func matchesEqual(a, b []Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End {
			return false
		}
		if len(a[i].Spans) != len(b[i].Spans) {
			return false
		}
		for k := range a[i].Spans {
			if a[i].Spans[k] != b[i].Spans[k] {
				return false
			}
		}
	}
	return true
}

func fmtMatches(ms []Match) string {
	s := ""
	for _, m := range ms {
		s += fmt.Sprintf("[%d..%d]%v ", m.Start, m.End, m.Spans)
	}
	return s
}

// TestStarCounterExample reproduces the §5 counter walk-through: with the
// sequence 20 21 23 24 22 20 18 15 14 18 21 and Example 8's pattern, the
// match consumes count(1)=4, count(2)=9, count(3)=11 tuples. The paper's
// counts include the sequence-initial tuple in the first star span, which
// corresponds to the MissingPrevTrue policy.
func TestStarCounterExample(t *testing.T) {
	seq := rows(20, 21, 23, 24, 22, 20, 18, 15, 14, 18, 21)

	p := example8(t, pattern.Options{MissingPrevTrue: true})
	tables := core.Compute(p)
	for _, ex := range []Executor{
		NewNaive(p, SkipPastLastRow),
		NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow}),
	} {
		ms, _ := ex.FindAll(seq)
		if len(ms) != 1 {
			t.Fatalf("%s: %d matches, want 1 (%s)", ex.Name(), len(ms), fmtMatches(ms))
		}
		m := ms[0]
		if m.Start != 0 || m.End != 10 {
			t.Errorf("%s: match [%d..%d], want [0..10]", ex.Name(), m.Start, m.End)
		}
		want := []Span{
			{Start: 0, End: 3, Set: true},  // *X: 20 21 23 24 → count(1)=4
			{Start: 4, End: 8, Set: true},  // *Y: 22 20 18 15 14 → count(2)=9
			{Start: 9, End: 10, Set: true}, // *Z: 18 21 → count(3)=11
		}
		for k, w := range want {
			if m.Spans[k] != w {
				t.Errorf("%s: span[%d] = %+v, want %+v", ex.Name(), k, m.Spans[k], w)
			}
		}
	}

	// With the default MissingPrevFalse policy the first tuple cannot
	// satisfy a predecessor-referencing predicate, so *X starts one later.
	p = example8(t, pattern.Options{})
	tables = core.Compute(p)
	for _, ex := range []Executor{
		NewNaive(p, SkipPastLastRow),
		NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow}),
	} {
		ms, _ := ex.FindAll(seq)
		if len(ms) != 1 {
			t.Fatalf("%s: %d matches, want 1 (%s)", ex.Name(), len(ms), fmtMatches(ms))
		}
		if got := ms[0].Spans[0]; got != (Span{Start: 1, End: 3, Set: true}) {
			t.Errorf("%s: *X span = %+v, want 1..3", ex.Name(), got)
		}
	}
}

// TestFigure5Sequence runs the Example 4 pattern over the §4.2.1 sequence
// 55 50 45 57 54 50 47 49 45 42 55 57 59 60 57 and checks that OPS and
// naive agree (no match exists) while OPS's search path is strictly
// shorter — the comparison Figure 5 plots.
func TestFigure5Sequence(t *testing.T) {
	seq := rows(55, 50, 45, 57, 54, 50, 47, 49, 45, 42, 55, 57, 59, 60, 57)
	p := example4(t, pattern.Options{})
	tables := core.Compute(p)

	naive := NewNaive(p, SkipPastLastRow)
	naive.Trace()
	nm, ns := naive.FindAll(seq)

	ops := NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow})
	ops.Trace()
	om, os := ops.FindAll(seq)

	if len(nm) != 0 || len(om) != 0 {
		t.Fatalf("expected no matches; naive %s ops %s", fmtMatches(nm), fmtMatches(om))
	}
	if os.PredEvals >= ns.PredEvals {
		t.Errorf("OPS path (%d) not shorter than naive (%d)", os.PredEvals, ns.PredEvals)
	}
	if int64(len(naive.Path())) != ns.PredEvals || int64(len(ops.Path())) != os.PredEvals {
		t.Error("trace length disagrees with PredEvals")
	}
	// The input cursor never moves left more than the pattern length.
	for s := 1; s < len(ops.Path()); s++ {
		if d := ops.Path()[s-1].I - ops.Path()[s].I; d > p.Len() {
			t.Errorf("OPS backtracked %d positions at step %d", d, s)
		}
	}
}

// randPattern generates a random pattern over the price column: 2-5
// elements, random star flags, conditions drawn from the families the
// paper uses (constant bounds, prev comparisons, scaled prev
// comparisons).
func randPattern(t testing.TB, r *rand.Rand, allowStar bool, opts pattern.Options) *pattern.Pattern {
	t.Helper()
	s := priceSchema()
	ops := []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}
	m := 2 + r.Intn(4)
	elems := make([]pattern.Element, m)
	for e := 0; e < m; e++ {
		var conds []pattern.Cond
		for c := 0; c < 1+r.Intn(2); c++ {
			op := ops[r.Intn(len(ops))]
			switch r.Intn(3) {
			case 0:
				conds = append(conds, pattern.FieldConst(0, pattern.Cur, op, float64(2+r.Intn(5))))
			case 1:
				conds = append(conds, pattern.FieldField(0, pattern.Cur, op, 0, pattern.Prev, float64(r.Intn(3)-1)))
			default:
				coefs := []float64{0.5, 0.9, 1, 1.1, 2}
				conds = append(conds, pattern.FieldScaled(0, pattern.Cur, op, coefs[r.Intn(len(coefs))], 0, pattern.Prev))
			}
		}
		elems[e] = pattern.Element{
			Name:  fmt.Sprintf("E%d", e),
			Star:  allowStar && r.Intn(3) == 0,
			Local: conds,
		}
	}
	opts.PositiveColumns = []string{"price"}
	p, err := pattern.Compile(s, elems, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func randSeq(r *rand.Rand, n int) []storage.Row {
	out := make([]storage.Row, n)
	for i := range out {
		out[i] = storage.Row{storage.NewFloat(float64(1 + r.Intn(8)))}
	}
	return out
}

// TestOPSEquivalenceRandom is the load-bearing property test: on random
// patterns (with and without stars, both skip policies, both missing-prev
// policies) and random small-domain sequences, OPS must report exactly
// the matches of the naive reference executor, spans included.
func TestOPSEquivalenceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	trials := 4000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		allowStar := trial%2 == 0
		opts := pattern.Options{MissingPrevTrue: trial%4 < 2}
		p := randPattern(t, r, allowStar, opts)
		tables := core.Compute(p)
		seq := randSeq(r, 10+r.Intn(70))
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			nm, ns := NewNaive(p, policy).FindAll(seq)
			om, os := NewOPS(p, tables, OPSConfig{Policy: policy}).FindAll(seq)
			if !matchesEqual(nm, om) {
				t.Fatalf("trial %d (%s, policy %s): matches differ\npattern %s\nnaive: %s\nops:   %s\nseq: %v",
					trial, p, policy, explain(p), fmtMatches(nm), fmtMatches(om), seqVals(seq))
			}
			if os.PredEvals > ns.PredEvals {
				t.Fatalf("trial %d: OPS used more evals (%d) than naive (%d) for %s",
					trial, os.PredEvals, ns.PredEvals, explain(p))
			}
		}
	}
}

// TestOPSAblationsEquivalence: the ablated executors must still be exact.
func TestOPSAblationsEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(123))
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		p := randPattern(t, r, true, pattern.Options{})
		tables := core.Compute(p)
		seq := randSeq(r, 10+r.Intn(50))
		nm, _ := NewNaive(p, SkipPastLastRow).FindAll(seq)
		for _, cfg := range ablations(SkipPastLastRow) {
			om, _ := NewOPS(p, tables, cfg).FindAll(seq)
			if !matchesEqual(nm, om) {
				t.Fatalf("trial %d cfg %+v: matches differ\npattern %s\nnaive: %s\nops: %s\nseq: %v",
					trial, cfg, explain(p), fmtMatches(nm), fmtMatches(om), seqVals(seq))
			}
		}
	}
}

// TestRollbackSteps pins the step table newSteps derives for the paper's
// Examples 1, 4, 8 and 10 under the default config and each ablation —
// the ops, ops-shift-only, ops-no-counters and ops+skip executors' — and
// checks that a stream reads the default executor's steps and that rollback
// re-bases count[] by a step as §5 does. A step is {from, resume, back,
// consume}; entry 0 is unused.
func TestRollbackSteps(t *testing.T) {
	fresh := func(from int) step { return step{from, 0, false, false} }
	back := func(from int) step { return step{from, 0, true, false} }
	to := func(from, resume int) step { return step{from, resume, false, false} }
	take := func(from, resume int) step { return step{from, resume, false, true} }
	// Example 1 is star-free with next(2) = next(3) = 2: the consume rule
	// at element 2, which ShiftOnly's clamp removes.
	ex1 := []step{{}, fresh(1), take(1, 1), to(1, 2)}
	// Example 4 is star-free and every next ≤ 1: no config changes it.
	ex4 := []step{{}, fresh(1), to(1, 1), to(1, 1), to(1, 1), to(3, 1)}
	// Example 8 has SkipOK nowhere; NoCounters restarts every step.
	ex8 := []step{{}, fresh(1), to(1, 1), fresh(3)}
	// Example 10 has SkipOK at elements 2 and 6.
	ex10 := []step{{}, fresh(1), to(1, 1), to(2, 1), to(2, 1), to(3, 1), to(5, 1), to(4, 1), to(4, 1), to(4, 1)}
	want := map[string]map[string][]step{
		"example1": {
			"ops":             ex1,
			"ops-shift-only":  {{}, fresh(1), to(1, 1), to(1, 1)},
			"ops-no-counters": ex1,
			"ops+skip":        ex1,
		},
		"example4": {"ops": ex4, "ops-shift-only": ex4, "ops-no-counters": ex4, "ops+skip": ex4},
		"example8": {
			"ops":             ex8,
			"ops-shift-only":  ex8,
			"ops-no-counters": {{}, back(1), back(1), back(3)},
			"ops+skip":        ex8,
		},
		"example10": {
			"ops":             ex10,
			"ops-shift-only":  ex10,
			"ops-no-counters": {{}, back(1), back(1), back(2), back(2), back(3), back(5), back(4), back(4), back(4)},
			"ops+skip":        {{}, fresh(1), take(1, 1), to(2, 1), to(2, 1), to(3, 1), take(5, 1), to(4, 1), to(4, 1), to(4, 1)},
		},
	}
	for _, ex := range paperExamples(t) {
		tab := core.Compute(ex.p)
		for _, cfg := range append([]OPSConfig{{}}, ablations(SkipPastLastRow)...) {
			o := NewOPS(ex.p, tab, cfg)
			if w := want[ex.golden][o.Name()]; !slices.Equal(o.steps, w) {
				t.Errorf("%s %s: steps\n%v, want\n%v", ex.golden, o.Name(), o.steps, w)
			}
		}
		s := NewStreamer(ex.p, StreamConfig{Tables: tab}, func(Match) {})
		if o := NewOPS(ex.p, tab, OPSConfig{}); !slices.Equal(s.a.steps, o.steps) {
			t.Errorf("%s: the stream's steps %v, %s's %v", ex.golden, s.a.steps, o.Name(), o.steps)
		}
	}

	// rollback after a mismatch at element 5 of an attempt that began at
	// row 12 and whose elements 1-4 took 2, 3, 1 and 2 tuples, so the
	// cursor is at row 20 (count[5] is stale).
	for _, c := range []struct {
		s     step
		i, j  int
		count []int
	}{
		{fresh(5), 21, 1, []int{0, 2, 5, 6, 8, 99}},
		{to(1, 4), 20, 4, []int{0, 3, 4, 6, 8, 99}},
		{to(2, 2), 18, 2, []int{0, 1, 5, 6, 8, 99}},
		{take(2, 3), 21, 4, []int{0, 1, 3, 4, 8, 9}},
	} {
		count := []int{0, 2, 5, 6, 8, 99}
		if i, j := c.s.rollback(count, 20, 5); i != c.i || j != c.j || !slices.Equal(count, c.count) {
			t.Errorf("%v: row %d, element %d, count %v; want %d, %d, %v", c.s, i, j, count, c.i, c.j, c.count)
		}
	}
}

func seqVals(seq []storage.Row) []float64 {
	out := make([]float64, len(seq))
	for i, r := range seq {
		out[i] = r[0].Float()
	}
	return out
}

func explain(p *pattern.Pattern) string {
	s := p.String() + " where "
	for _, e := range p.Elems {
		s += e.Name + ": " + e.Sys.String() + "; "
	}
	return s
}

// TestReverseSearchEquivalence: reverse-direction search over the
// reversed sequence must find the same match set (star-free patterns).
func TestReverseSearchEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		p := randPattern(t, r, false, pattern.Options{})
		rp, err := core.ReversePattern(p)
		if err != nil {
			t.Fatal(err)
		}
		seq := randSeq(r, 10+r.Intn(50))
		// Compare the full occurrence sets (SkipToNextRow) — the
		// left-maximality policy is direction-dependent by design, so
		// SkipPastLastRow sets may legitimately differ between
		// directions.
		nm, _ := NewNaive(p, SkipToNextRow).FindAll(seq)
		rm, _ := NewNaive(rp, SkipToNextRow).FindAll(ReverseRows(seq))
		back := MapReverseMatches(rm, len(seq))
		if len(nm) != len(back) {
			t.Fatalf("trial %d: forward %d matches, reverse %d\npattern %s\nrev %s\nfwd: %s\nrev: %s\nseq: %v",
				trial, len(nm), len(back), explain(p), explain(rp), fmtMatches(nm), fmtMatches(back), seqVals(seq))
		}
		for i := range nm {
			if nm[i].Start != back[i].Start || nm[i].End != back[i].End {
				t.Fatalf("trial %d: match %d differs: fwd [%d..%d] rev [%d..%d]\npattern %s seq %v",
					trial, i, nm[i].Start, nm[i].End, back[i].Start, back[i].End, explain(p), seqVals(seq))
			}
		}
	}
}

// TestTrailingStarMatch covers the star element ending exactly at the end
// of input, under both policies.
func TestTrailingStarMatch(t *testing.T) {
	p := example8(t, pattern.Options{MissingPrevTrue: true})
	tables := core.Compute(p)
	seq := rows(1, 2, 1, 2, 3) // up, down, up — Z's rise runs to the end
	for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
		nm, _ := NewNaive(p, policy).FindAll(seq)
		om, _ := NewOPS(p, tables, OPSConfig{Policy: policy}).FindAll(seq)
		if !matchesEqual(nm, om) {
			t.Fatalf("policy %s: naive %s vs ops %s", policy, fmtMatches(nm), fmtMatches(om))
		}
		if len(nm) == 0 {
			t.Fatalf("policy %s: expected at least one match", policy)
		}
		last := nm[len(nm)-1]
		if last.End != len(seq)-1 {
			t.Errorf("policy %s: match should reach the end, got %d", policy, last.End)
		}
	}
}

// TestEmptyAndTinySequences exercises degenerate inputs.
func TestEmptyAndTinySequences(t *testing.T) {
	p := example4(t, pattern.Options{})
	tables := core.Compute(p)
	for _, n := range []int{0, 1, 2, 3} {
		seq := randSeq(rand.New(rand.NewSource(int64(n))), n)
		nm, _ := NewNaive(p, SkipPastLastRow).FindAll(seq)
		om, _ := NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow}).FindAll(seq)
		if len(nm) != 0 || len(om) != 0 {
			t.Errorf("n=%d: expected no matches in too-short input", n)
		}
	}
}

// TestCrossConditions: a pattern with an alignment-dependent condition
// (Example 2's Z.previous.price < 0.5 * X.price) must run correctly under
// both executors, with the optimizer degrading conservatively.
func TestCrossConditions(t *testing.T) {
	s := priceSchema()
	b := pattern.NewBuilder(s)
	b.Elem("X").
		Star("Y", b.CmpPrev("price", constraint.Lt)).
		Elem("Z", b.CmpPrev("price", constraint.Ge)).
		CrossOn("Z.previous.price < 0.5*X.price", func(ctx *pattern.EvalContext) bool {
			x := ctx.Bind[0]
			if !x.Set || ctx.Pos == 0 {
				return false
			}
			return ctx.Seq.At(ctx.Pos-1, 0).Float() < 0.5*ctx.Seq.At(x.Start, 0).Float()
		})
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tables := core.Compute(p)

	// 100 → fall to 40 (60% drop) then recover: X=100, *Y=90..40, Z=45.
	seq := rows(100, 90, 70, 55, 40, 45, 50)
	nm, _ := NewNaive(p, SkipPastLastRow).FindAll(seq)
	om, _ := NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow}).FindAll(seq)
	if !matchesEqual(nm, om) {
		t.Fatalf("naive %s vs ops %s", fmtMatches(nm), fmtMatches(om))
	}
	if len(nm) != 1 {
		t.Fatalf("want 1 match, got %s", fmtMatches(nm))
	}
	if nm[0].Spans[1] != (Span{Start: 1, End: 4, Set: true}) {
		t.Errorf("*Y span = %+v, want 1..4", nm[0].Spans[1])
	}

	// Same shape but the drop is only 50% → no match.
	seq = rows(100, 90, 70, 55, 51, 55)
	nm, _ = NewNaive(p, SkipPastLastRow).FindAll(seq)
	om, _ = NewOPS(p, tables, OPSConfig{Policy: SkipPastLastRow}).FindAll(seq)
	if len(nm) != 0 || len(om) != 0 {
		t.Fatalf("expected no match: naive %s ops %s", fmtMatches(nm), fmtMatches(om))
	}
}

// TestCrossConditionsRandom fuzzes a cross condition against both
// executors.
func TestCrossConditionsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	s := priceSchema()
	trials := 800
	if testing.Short() {
		trials = 200
	}
	for trial := 0; trial < trials; trial++ {
		b := pattern.NewBuilder(s)
		b.Elem("X", b.CmpPrev("price", constraint.Lt)).
			Star("Y", b.CmpPrev("price", constraint.Le)).
			Elem("Z", b.CmpPrev("price", constraint.Gt)).
			CrossOn("Z.price > X.price", func(ctx *pattern.EvalContext) bool {
				x := ctx.Bind[0]
				return x.Set && ctx.Seq.At(ctx.Pos, 0).Float() > ctx.Seq.At(x.Start, 0).Float()
			})
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		tables := core.Compute(p)
		seq := randSeq(r, 10+r.Intn(40))
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			nm, _ := NewNaive(p, policy).FindAll(seq)
			om, _ := NewOPS(p, tables, OPSConfig{Policy: policy}).FindAll(seq)
			if !matchesEqual(nm, om) {
				t.Fatalf("trial %d policy %s: naive %s vs ops %s seq %v",
					trial, policy, fmtMatches(nm), fmtMatches(om), seqVals(seq))
			}
		}
	}
}

// TestStatsAccumulate sanity-checks the Stats helper.
func TestStatsAccumulate(t *testing.T) {
	a := Stats{PredEvals: 1, Rollbacks: 2, Matches: 3}
	a.Add(Stats{PredEvals: 10, Rollbacks: 20, Matches: 30})
	if a != (Stats{PredEvals: 11, Rollbacks: 22, Matches: 33}) {
		t.Errorf("Add wrong: %+v", a)
	}
}

// TestExecutorNames pins the names used in benchmark output (the OPS
// variants' are TestRollbackSteps' keys).
func TestExecutorNames(t *testing.T) {
	p := example4(t, pattern.Options{})
	tables := core.Compute(p)
	if NewNaive(p, SkipPastLastRow).Name() != "naive" {
		t.Error("naive name")
	}
	if NewOPS(p, tables, OPSConfig{}).Name() != "ops" {
		t.Error("ops name")
	}
	if SkipPastLastRow.String() == SkipToNextRow.String() {
		t.Error("policy names collide")
	}
}

// TestMatchesOutliveLaterSearches: an executor reports into blocks it
// does not overwrite until Recycle, so what one FindAll returned — the
// match slice and every span slice in it — still reads the same after
// hundreds of later searches on the same executor, runs among them, and
// appending to a returned slice reaches nothing another search reported.
// Each search is held against a fresh executor's over the same sequence.
func TestMatchesOutliveLaterSearches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	b := pattern.NewBuilder(priceSchema())
	plain, err := b.Elem("X", b.CmpPrev("price", constraint.Lt)).
		Elem("Y", b.CmpPrev("price", constraint.Lt)).
		Elem("Z", b.CmpPrev("price", constraint.Gt)).Build()
	if err != nil {
		t.Fatal(err)
	}
	star := example8(t, pattern.Options{})
	starK := star.CompileKernel()
	pure := NewOPS(star, core.Compute(star), OPSConfig{}) // the pure-mask loop over its masks
	pure.UseKernel(starK)
	executors := []struct {
		reused Executor
		fresh  func() Executor
	}{
		{pure, func() Executor { return NewNaive(star, SkipPastLastRow) }},
		{NewOPS(star, core.Compute(star), OPSConfig{}), func() Executor { return NewOPS(star, core.Compute(star), OPSConfig{}) }},
		{NewOPS(plain, core.Compute(plain), OPSConfig{Policy: SkipToNextRow}), func() Executor {
			return NewOPS(plain, core.Compute(plain), OPSConfig{Policy: SkipToNextRow})
		}},
		{NewNaive(star, SkipPastLastRow), func() Executor { return NewNaive(star, SkipPastLastRow) }},
	}
	for _, ex := range executors {
		var kept, want [][]Match
		total := 0
		for i := 0; i < 300; i++ {
			seq := randSeq(r, r.Intn(60))
			var masks []*pattern.MaskSet // the pure executor's, for FindAll and the run
			if ex.reused == Executor(pure) {
				ms := testutil.Masks(starK, seq)
				masks = []*pattern.MaskSet{ms, ms}
				pure.UseMasks(ms)
			}
			got, _ := ex.reused.FindAll(seq)
			ref, _ := ex.fresh().FindAll(seq)
			if !matchesEqual(got, ref) {
				t.Fatalf("%s search %d: %s, a fresh executor finds %s", ex.reused.Name(), i, fmtMatches(got), fmtMatches(ref))
			}
			kept, want = append(kept, got), append(want, ref)
			total += len(got)
			_ = append(got, Match{Start: -1, End: -1}) // must not land in the block
			if i%10 == 9 {
				// A run between the searches uses the blocks as scratch: it
				// must leave what FindAll reported alone.
				sink := &runSink{}
				run := chunk([][]storage.Row{seq, seq}, masks, sink)
				if err := ex.reused.FindRun(&run); err != nil {
					t.Fatal(err)
				}
				if len(ref) > 0 && (len(sink.found) != 2 || !matchesEqual(sink.found[1].ms, ref)) {
					t.Fatalf("%s search %d: a run over the sequence twice found %d clusters", ex.reused.Name(), i, len(sink.found))
				}
			}
		}
		if total < 300 {
			t.Fatalf("%s: only %d matches over 300 searches", ex.reused.Name(), total)
		}
		if ex.reused == Executor(pure) && !pure.ranPure {
			t.Fatal("the vectorized OPS executor did not take the pure-mask loop")
		}
		for i := range kept {
			if !matchesEqual(kept[i], want[i]) {
				t.Fatalf("%s: search %d's matches changed under later searches:\n%s\n%s",
					ex.reused.Name(), i, fmtMatches(kept[i]), fmtMatches(want[i]))
			}
		}
	}
}

// TestBlockReserve pins the two refill policies of a Block. Unreserved it
// doubles. Reserved, a run that meets the estimate is one allocation, and
// one that outgrows it refills by a quarter of the estimate, each refill a
// quarter larger than the last, never by doubling — while runs stay
// contiguous and earlier runs keep their elements.
func TestBlockReserve(t *testing.T) {
	var plain Block[int]
	plain.Take(3)
	plain.Take(1)
	if got := cap(plain.buf); got != 6 {
		t.Errorf("an unreserved block refilled to %d elements after a first block of 3, want 6", got)
	}

	var b Block[int]
	b.Reserve(100)
	first := b.Take(100)
	if cap(b.buf) != 100 || b.step != 25 {
		t.Fatalf("Reserve(100): block of %d, refill step %d; want 100 and 25", cap(b.buf), b.step)
	}
	for i := range first {
		first[i] = i
	}
	b.Take(1)
	if got := cap(b.buf); got != 25 {
		t.Errorf("the first refill of a block reserved for 100 holds %d, want 25", got)
	}
	// A run that outgrows its block moves whole, with room for a refill
	// behind it; the run before it stays where it was.
	from := b.Len()
	for i := 0; i < 60; i++ {
		from = b.Append(from, 1000+i)
	}
	run := b.Run(from)
	if len(run) != 60 || cap(run) != 60 {
		t.Fatalf("a run of 60 appends is %d long, capacity %d", len(run), cap(run))
	}
	for i, v := range run {
		if v != 1000+i {
			t.Fatalf("run[%d] = %d after the run moved blocks, want %d", i, v, 1000+i)
		}
	}
	for i, v := range first {
		if v != i {
			t.Fatalf("an earlier Take's element %d changed to %d", i, v)
		}
	}
	// Far past the estimate the refills grow geometrically, a quarter at a
	// time: a thousand times the estimate is a few dozen blocks, and none
	// is as large as everything handed out before it.
	blocks, handed, last := 0, 161, cap(b.buf)
	for ; handed < 100000; handed++ {
		b.Take(1)
		if c := cap(b.buf); c != last {
			blocks, last = blocks+1, c
			if c >= handed {
				t.Fatalf("a refill of %d elements after %d handed out doubles the block", c, handed)
			}
		}
	}
	if blocks < 10 || blocks > 40 {
		t.Errorf("%d refills to hand out 100,000 elements from a block reserved for 100", blocks)
	}
	if b.Run(b.Len()) != nil {
		t.Error("an empty run is not nil")
	}
}
