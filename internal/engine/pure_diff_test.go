package engine

// Differential tests for the pure-mask star loop (findAllStarPure): on
// patterns whose every element a selection mask decides, the default
// vectorized OPS executor takes the specialised loop, and must report
// the matches, spans, PredEvals and Rollbacks of the generic loop —
// reached here through the interpreter and the row kernel — to the
// digit. The sequence lengths sit on the mask's word seams, where the
// run scans change words.

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/core"
	"sqlts/internal/fault"
	"sqlts/internal/pattern"
	"sqlts/internal/query"
	"sqlts/internal/storage"
)

var pureLens = []int{1, 2, 63, 64, 65, 127, 128, 129, 200, 500}

// pureCond draws a condition every mask builder covers: cur/prev
// field-const and field-field comparisons over the numeric columns.
func pureCond(r *rand.Rand) pattern.Cond {
	ops := []constraint.Op{constraint.Eq, constraint.Ne, constraint.Lt, constraint.Le, constraint.Gt, constraint.Ge}
	op := ops[r.Intn(len(ops))]
	role := func() pattern.Role {
		if r.Intn(3) == 0 {
			return pattern.Prev
		}
		return pattern.Cur
	}
	if r.Intn(2) == 0 {
		return pattern.FieldConst(r.Intn(2), role(), op, float64(1+r.Intn(6)))
	}
	return pattern.FieldField(r.Intn(2), role(), op, r.Intn(2), role(), float64(r.Intn(3)-1))
}

// purePattern draws 2–7 elements, about half of them starred (the first
// and last included), with 0–2 local conditions each and no cross
// conditions. An element without conditions has an all-ones mask; one
// in eight gets an unsatisfiable bound, an all-zeros mask.
func purePattern(t testing.TB, r *rand.Rand) *pattern.Pattern {
	t.Helper()
	m := 2 + r.Intn(6)
	elems := make([]pattern.Element, m)
	for i := range elems {
		e := pattern.Element{Name: fmt.Sprintf("E%d", i), Star: r.Intn(2) == 0}
		for k := r.Intn(3); k > 0; k-- {
			e.Local = append(e.Local, pureCond(r))
		}
		if r.Intn(8) == 0 {
			e.Local = append(e.Local, pattern.FieldConst(0, pattern.Cur, constraint.Gt, 100))
		}
		elems[i] = e
	}
	p, err := pattern.Compile(diffSchema(), elems, pattern.Options{MissingPrevTrue: r.Intn(2) == 0})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// repeatPattern draws 2–7 elements from three of fuzz_test.go's pooled
// predicates over the price walk. So few predicates repeat across
// elements, which is what produces θ = 1 entries, next() values of 2 and
// more, and the count re-basing rollbacks behind them.
func repeatPattern(t testing.TB, r *rand.Rand) *pattern.Pattern {
	t.Helper()
	pool := condPool(r)[:3]
	elems := make([]pattern.Element, 2+r.Intn(6))
	for i := range elems {
		elems[i] = pattern.Element{Name: fmt.Sprintf("E%d", i), Star: r.Intn(2) == 0, Local: pool[r.Intn(len(pool))]}
	}
	p, err := pattern.Compile(priceSchema(), elems, pattern.Options{
		MissingPrevTrue: r.Intn(2) == 0, PositiveColumns: []string{"price"},
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return p
}

// pureSeq draws diffSeq's small-domain rows with NULLs; every other call
// holds each row for a random stretch, so star runs and element-1 zero
// runs span whole mask words.
func pureSeq(r *rand.Rand, n int) []storage.Row {
	seq := diffSeq(r, n)
	if r.Intn(2) == 0 {
		for i := 1; i < n; i++ {
			if r.Intn(40) != 0 {
				seq[i] = seq[i-1]
			}
		}
	}
	return seq
}

// pairRowsSeen sums the rows pureCheck's vectorized executors resolved in
// pair scans.
var pairRowsSeen int64

// pureCheck runs one (pattern, sequence, policy) through the three OPS
// evaluation modes and naive, and reports whether the vectorized
// executor took the pure loop — which it must exactly when the pattern
// has a star and every element has a mask (UseKernel declines a kernel
// with no compiled row chain, which leaves the interpreter in place) —
// and ran no pair scan unless selectLoop's gate is open.
func pureCheck(t *testing.T, label string, p *pattern.Pattern, seq []storage.Row, policy SkipPolicy) bool {
	t.Helper()
	tab := core.Compute(p)
	pat := explain(p)
	k := p.CompileKernel()
	oi := NewOPS(p, tab, OPSConfig{Policy: policy})
	ok := NewOPS(p, tab, OPSConfig{Policy: policy})
	ok.UseKernel(k)
	ov := NewOPS(p, tab, OPSConfig{Policy: policy})
	ov.UseKernel(k)
	ov.SetVectorized(true)
	diffCheck(t, label+" ops-kernel", pat, oi, ok, seq)
	diffCheck(t, label+" ops-vec", pat, oi, ov, seq)
	om, os := oi.FindAll(seq)
	nm, ns := NewNaive(p, policy).FindAll(seq)
	if !matchesEqual(nm, om) {
		t.Fatalf("%s: OPS and naive matches diverge\npattern: %s\nnaive: %s\nops: %s", label, pat, fmtMatches(nm), fmtMatches(om))
	}
	if os.PredEvals > ns.PredEvals {
		t.Fatalf("%s: OPS used %d pred-evals, naive %d\npattern: %s", label, os.PredEvals, ns.PredEvals, pat)
	}
	if oi.ranPure || ok.ranPure {
		t.Fatalf("%s: a non-vectorized executor took the pure loop", label)
	}
	if want := tab.HasStar && k.VecElems() == p.Len() && k.CompiledElems() > 0; ov.ranPure != want {
		t.Fatalf("%s: pure loop taken = %v, want %v (HasStar %v, %d of %d elements vectorized, %d compiled)\npattern: %s",
			label, ov.ranPure, want, tab.HasStar, k.VecElems(), p.Len(), k.CompiledElems(), pat)
	}
	if ov.pairRows > 0 && selectLoop(tab, true) != loopPurePair {
		t.Fatalf("%s: a pair scan ran with the gate closed (shift(2) = %d, next(2) = %d)\npattern: %s", label, tab.Shift[2], tab.Next[2], pat)
	}
	pairRowsSeen += ov.pairRows
	return ov.ranPure
}

func TestPureLoopDifferential(t *testing.T) {
	taken, paired := 0, pairRowsSeen
	for seed := 0; seed < 700; seed++ {
		r := rand.New(rand.NewSource(int64(7000 + seed)))
		n := pureLens[seed/2%len(pureLens)]
		var p *pattern.Pattern
		var seq []storage.Row
		if seed%2 == 0 {
			p, seq = purePattern(t, r), pureSeq(r, n)
		} else {
			p, seq = repeatPattern(t, r), walkSeq(r, n)
		}
		for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
			if pureCheck(t, fmt.Sprintf("seed %d n=%d %v", seed, len(seq), policy), p, seq, policy) {
				taken++
			}
		}
	}

	// The corners the random draw may miss, at every length: a trailing
	// star that runs to the end of input over an all-ones mask, and an
	// all-zeros mask at the first, a middle and the last element.
	b := func(elems ...pattern.Element) *pattern.Pattern {
		p, err := pattern.Compile(diffSchema(), elems, pattern.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	never := pattern.FieldConst(0, pattern.Cur, constraint.Gt, 100)
	low := pattern.FieldConst(0, pattern.Cur, constraint.Le, 3)
	corners := map[string]*pattern.Pattern{
		"tail star all-ones":   b(pattern.Element{Name: "A", Local: []pattern.Cond{low}}, pattern.Element{Name: "B", Star: true}),
		"lone stars all-ones":  b(pattern.Element{Name: "A", Star: true}, pattern.Element{Name: "B", Star: true}),
		"first all-zeros":      b(pattern.Element{Name: "A", Star: true, Local: []pattern.Cond{never}}, pattern.Element{Name: "B"}),
		"middle all-zeros":     b(pattern.Element{Name: "A"}, pattern.Element{Name: "B", Star: true, Local: []pattern.Cond{never}}, pattern.Element{Name: "C"}),
		"last all-zeros":       b(pattern.Element{Name: "A", Star: true, Local: []pattern.Cond{low}}, pattern.Element{Name: "B", Local: []pattern.Cond{never}}),
		"star then tail star":  b(pattern.Element{Name: "A", Star: true, Local: []pattern.Cond{low}}, pattern.Element{Name: "B", Star: true}),
		"plain between stars":  b(pattern.Element{Name: "A", Star: true}, pattern.Element{Name: "B", Local: []pattern.Cond{low}}, pattern.Element{Name: "C", Star: true}),
		"double bottom":        doubleBottomShape(), // the serving benchmark's statement shape
		"tail star, bound run": b(pattern.Element{Name: "A"}, pattern.Element{Name: "B", Star: true, Local: []pattern.Cond{low}}),
	}
	for name, p := range corners {
		for li, n := range pureLens {
			seq := pureSeq(rand.New(rand.NewSource(int64(li))), n)
			if name == "double bottom" {
				seq = walkSeq(rand.New(rand.NewSource(int64(li))), 4*n)
			}
			for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
				if pureCheck(t, fmt.Sprintf("%s n=%d %v", name, n, policy), p, seq, policy) {
					taken++
				}
			}
		}
	}
	// The pair scan's corners, over price codes: 1 satisfies X, 2 satisfies
	// Y, 0 and 3 neither. Each runs at every length and at 5,000 rows.
	pb := func(elems ...pattern.Element) *pattern.Pattern {
		p, err := pattern.Compile(priceSchema(), elems, pattern.Options{})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return p
	}
	is := func(v float64) []pattern.Cond {
		return []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, v)}
	}
	rise := []pattern.Cond{pattern.FieldField(0, pattern.Cur, constraint.Gt, 0, pattern.Prev, 0)}
	codes := func(n int, code func(i int) float64) []storage.Row {
		seq := make([]storage.Row, n)
		for i := range seq {
			seq[i] = storage.Row{storage.NewFloat(code(i))}
		}
		return seq
	}
	xy := pb(pattern.Element{Name: "X", Local: is(1)}, pattern.Element{Name: "Y", Star: true, Local: is(2)}) // m = 2
	pairCorners := []struct {
		name string
		p    *pattern.Pattern
		seq  func(n int) []storage.Row // nil: random codes
		gate bool
	}{
		// X on every third row with Y failing after it, and true pairs
		// across the seams at 62/63, 63/64 and 127/128.
		{"pair on a word seam", xy, func(n int) []storage.Row {
			return codes(n, func(i int) float64 {
				switch {
				case i == 62 || i == 63 || i == 127:
					return 1
				case i == 64 || i == 128:
					return 2
				case i%3 == 0:
					return 1
				}
				return 0
			})
		}, true},
		{"X only on the last row", xy, func(n int) []storage.Row {
			return codes(n, func(i int) float64 {
				if i == n-1 {
					return 1
				}
				return 0
			})
		}, true},
		// Every row is a failed start of two evals, the last of one.
		{"X all-ones, Y all-zeros", pb(pattern.Element{Name: "X"}, pattern.Element{Name: "Y", Star: true, Local: is(7)}), nil, true},
		{"plain element 2", pb(pattern.Element{Name: "X", Local: is(1)}, pattern.Element{Name: "Y", Local: is(2)}, pattern.Element{Name: "Z", Star: true, Local: is(3)}), nil, true},
		{"m = 2, random codes", xy, nil, true},
		// Y failing on r+1 means X fails there too: next(2) = 0 closes the gate.
		{"repeated predicate", pb(pattern.Element{Name: "X", Local: rise}, pattern.Element{Name: "Y", Star: true, Local: rise}, pattern.Element{Name: "Z", Local: is(1)}), nil, false},
	}
	for _, c := range pairCorners {
		tab := core.Compute(c.p)
		if got := selectLoop(tab, true) == loopPurePair; got != c.gate {
			t.Fatalf("%s: pair gate open = %v, want %v (shift(2) = %d, next(2) = %d)", c.name, got, c.gate, tab.Shift[2], tab.Next[2])
		}
		for li, n := range append(pureLens, 5000) {
			var seq []storage.Row
			if c.seq != nil {
				seq = c.seq(n)
			} else {
				r := rand.New(rand.NewSource(int64(li)))
				seq = codes(n, func(int) float64 { return float64(r.Intn(4)) })
			}
			for _, policy := range []SkipPolicy{SkipPastLastRow, SkipToNextRow} {
				if pureCheck(t, fmt.Sprintf("%s n=%d %v", c.name, n, policy), c.p, seq, policy) {
					taken++
				}
			}
		}
	}

	t.Logf("pure loop taken %d times, pair scans resolved %d rows", taken, pairRowsSeen-paired)
	if taken < 1000 {
		t.Fatalf("the pure loop ran %d times; the differential must cover at least 1000", taken)
	}
	if pairRowsSeen-paired < 100_000 {
		t.Fatalf("the pair scans resolved %d rows; the differential must cover at least 100,000", pairRowsSeen-paired)
	}
}

// FuzzPureLoop runs pureCheck on what the seed draws from the
// differential's generators: purePattern over pureSeq for an even seed,
// repeatPattern over walkSeq for an odd one, n%2048 rows long. The seed
// corpus is in testdata/fuzz/FuzzPureLoop.
//
// pureSeq's NULLs are replaced by the lowest value of their column's
// domain: the θ/φ entries are derived as if no operand were NULL, and
// within seconds the fuzzer finds sequences where OPS then reports
// matches naive does not, whatever the loop (ROADMAP's NULL item has a
// three-row case).
func FuzzPureLoop(f *testing.F) {
	fill := storage.Row{storage.NewFloat(1), storage.NewInt(1), storage.NewString("a"), storage.NewDateDays(100)}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, toNextRow bool) {
		r := rand.New(rand.NewSource(seed))
		rows := int(n % 2048)
		var p *pattern.Pattern
		var seq []storage.Row
		if seed%2 == 0 {
			p, seq = purePattern(t, r), pureSeq(r, rows)
			for _, row := range seq {
				for c, v := range row {
					if v.IsNull() {
						row[c] = fill[c]
					}
				}
			}
		} else {
			p, seq = repeatPattern(t, r), walkSeq(r, rows)
		}
		policy := SkipPastLastRow
		if toNextRow {
			policy = SkipToNextRow
		}
		pureCheck(t, fmt.Sprintf("seed %d n=%d %v", seed, rows, policy), p, seq, policy)
	})
}

// TestPureLoopFallsBack pins the selection: path tracing and any armed
// fault point keep the same pattern on the generic loop, which records
// the path and fires engine.ops.shift as before.
func TestPureLoopFallsBack(t *testing.T) {
	defer fault.Reset()
	// Example 8's three stars over a series with rollbacks beyond element
	// 1, so the shift fault point is on the path.
	p := example8(t, pattern.Options{MissingPrevTrue: true})
	tab := core.Compute(p)
	seq := rows(20, 21, 23, 24, 22, 20, 18, 15, 14, 18, 21, 19, 22, 25, 21, 20, 23)
	vec := func(cfg OPSConfig) *OPS {
		o := NewOPS(p, tab, cfg)
		o.UseKernel(p.CompileKernel())
		o.SetVectorized(true)
		return o
	}

	ref := vec(OPSConfig{})
	rm, rs := ref.FindAll(seq)
	if !ref.ranPure {
		t.Fatal("the fixture does not take the pure loop")
	}
	if rs.Rollbacks == 0 || rs.Matches == 0 {
		t.Fatalf("fixture too tame: %+v", rs)
	}

	traced := vec(OPSConfig{})
	traced.Trace()
	tm, ts := traced.FindAll(seq)
	if traced.ranPure {
		t.Fatal("Trace() on: the pure loop ran")
	}
	if int64(len(traced.Path())) != ts.PredEvals {
		t.Fatalf("Trace() on: %d path points for %d pred-evals", len(traced.Path()), ts.PredEvals)
	}
	if !matchesEqual(rm, tm) || rs != ts {
		t.Fatalf("traced run diverges: %+v vs %+v", ts, rs)
	}

	// An armed point the search never reaches still forces the generic
	// loop: fault determinism is tied to the exact eval cadence.
	for _, name := range []string{"engine.ops.shift", "engine.eval", "engine.stream.push"} {
		if err := fault.Arm(name, fault.Action{}); err != nil {
			t.Fatal(err)
		}
		armed := vec(OPSConfig{})
		am, as := armed.FindAll(seq)
		if armed.ranPure {
			t.Fatalf("%s armed: the pure loop ran", name)
		}
		if !matchesEqual(rm, am) || rs != as {
			t.Fatalf("%s armed: run diverges: %+v vs %+v", name, as, rs)
		}
		if name == "engine.ops.shift" {
			if fired := fault.Lookup(name).Fired(); fired != as.Rollbacks {
				t.Fatalf("engine.ops.shift fired %d times over %d rollbacks", fired, as.Rollbacks)
			}
		}
		fault.Reset()
	}

	// The ablation configs never take it either.
	for _, cfg := range []OPSConfig{{ShiftOnly: true}, {NoCounters: true}, {LastRowSkip: true}} {
		o := vec(cfg)
		o.FindAll(seq)
		if o.ranPure {
			t.Fatalf("%s took the pure loop", o.Name())
		}
	}

	// Disarmed and untraced, the next search is pure again.
	again := vec(OPSConfig{})
	again.FindAll(seq)
	if !again.ranPure {
		t.Fatal("after fault.Reset the pure loop is not selected")
	}
}

// TestSearchLoopLineAgreesWithRun: for each statement of the root
// package's EXPLAIN goldens (golden_test.go), the golden's "search loop:"
// line is SearchLoop's, and a default vectorized OPS run of the statement
// takes the loop it names: the pure loop exactly for "pure-mask", pair
// scans exactly for "pair scan".
func TestSearchLoopLineAgreesWithRun(t *testing.T) {
	quote := storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	djia := storage.MustSchema(
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
	for _, c := range []struct {
		golden string
		schema *storage.Schema
		sql    string
	}{
		{"example1", quote, `SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
			WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price`},
		{"example4", quote, `SELECT X.date FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z, T, U)
			WHERE X.name = 'IBM' AND Y.price < X.price AND Z.price < Y.price AND 40 < Z.price AND Z.price < 50
			  AND T.price > Z.price AND T.price < 52 AND U.price > T.price`},
		{"example8", quote, `SELECT X.name, FIRST(X).date, LAST(Z).date FROM quote CLUSTER BY name SEQUENCE BY date AS (*X, *Y, *Z)
			WHERE X.price > X.previous.price AND Y.price < Y.previous.price AND Z.price > Z.previous.price`},
		{"example10", djia, `SELECT X.next.date, X.next.price, S.previous.date, S.previous.price FROM djia SEQUENCE BY date
			AS (X, *Y, *Z, *T, *U, *V, *W, *R, S)
			WHERE X.price >= 0.98 * X.previous.price AND Y.price < 0.98 * Y.previous.price
			  AND 0.98 * Z.previous.price < Z.price AND Z.price < 1.02 * Z.previous.price
			  AND T.price > 1.02 * T.previous.price AND 0.98 * U.previous.price < U.price
			  AND U.price < 1.02 * U.previous.price AND V.price < 0.98 * V.previous.price
			  AND 0.98 * W.previous.price < W.price AND W.price < 1.02 * W.previous.price
			  AND R.price > 1.02 * R.previous.price AND S.price <= 1.02 * S.previous.price`},
	} {
		st, err := query.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := query.Analyze(st.(*query.SelectStmt), c.schema, query.AnalyzeOptions{PositiveColumns: []string{"price"}})
		if err != nil {
			t.Fatal(err)
		}
		p := compiled.Pattern
		tab, k := core.Compute(p), p.CompileKernel()
		line := "search loop: " + SearchLoop(p, tab, k)
		golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "explain_"+c.golden+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(golden), "\n"+line+"\n") {
			t.Fatalf("%s: the golden has no line %q", c.golden, line)
		}

		// A walk with IBM's name on every row, so every element can hold.
		walk := walkSeq(rand.New(rand.NewSource(1)), 2000)
		seq := make([]storage.Row, len(walk))
		for i, w := range walk {
			if c.schema == quote {
				seq[i] = storage.Row{storage.NewString("IBM"), storage.NewDateDays(int64(i)), w[0]}
			} else {
				seq[i] = storage.Row{storage.NewDateDays(int64(i)), w[0]}
			}
		}
		o := NewOPS(p, tab, OPSConfig{})
		o.UseKernel(k)
		o.SetVectorized(true)
		o.FindAll(seq)
		if pure := strings.HasPrefix(line, "search loop: pure-mask"); o.ranPure != pure {
			t.Fatalf("%s: %q, but the pure loop ran = %v", c.golden, line, o.ranPure)
		}
		if pair := strings.HasSuffix(line, "pair scan"); (o.pairRows > 0) != pair {
			t.Fatalf("%s: %q, but the pair scans resolved %d rows", c.golden, line, o.pairRows)
		}
	}
}

// longRunFixture is a plain element, a zeros-row element-1 zero run, and
// a star over an ones-row run of hits that reaches the end of input:
// price 0 fails A, price 1 starts a match, price 2 feeds the star.
func longRunFixture(t *testing.T, zeros, ones int) (*pattern.Pattern, []storage.Row) {
	s := priceSchema()
	p, err := pattern.Compile(s, []pattern.Element{
		{Name: "A", Local: []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, 1)}},
		{Name: "B", Star: true, Local: []pattern.Cond{pattern.FieldConst(0, pattern.Cur, constraint.Eq, 2)}},
	}, pattern.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq := make([]storage.Row, 0, zeros+1+ones)
	for i := 0; i < zeros; i++ {
		seq = append(seq, storage.Row{storage.NewFloat(0)})
	}
	seq = append(seq, storage.Row{storage.NewFloat(1)})
	for i := 0; i < ones; i++ {
		seq = append(seq, storage.Row{storage.NewFloat(2)})
	}
	return p, seq
}

// pairRunFixture is longRunFixture's pattern over n rows where A holds
// and B fails on the next row, then one B row: n-1 failed starts of two
// evals each, which one pair scan resolves, and a two-row match.
func pairRunFixture(t *testing.T, n int) (*pattern.Pattern, []storage.Row) {
	p, _ := longRunFixture(t, 0, 0)
	seq := make([]storage.Row, n+1)
	for i := range seq {
		seq[i] = storage.Row{storage.NewFloat(1)}
	}
	seq[n] = storage.Row{storage.NewFloat(2)}
	return p, seq
}

// TestPureLoopCheckpointCadence: evals answered in bulk keep the
// one-checkpoint-per-1024-evals cadence. A 5,000-row element-1 zero run
// and a 5,000-row star run each cross four boundaries in one step, and
// 5,000 rows of failed two-eval starts cross nine in one pair scan; the
// interrupt must be consulted exactly PredEvals>>10 times, by the pure
// loop and by the generic loop's and naive's zero-run skip alike.
func TestPureLoopCheckpointCadence(t *testing.T) {
	zp, zseq := longRunFixture(t, 5000, 5000)
	pp, pseq := pairRunFixture(t, 5000)
	for _, fx := range []struct {
		name       string
		p          *pattern.Pattern
		seq        []storage.Row
		start, end int
		evals      int64
		pairRows   int64
	}{
		{"zero run, star run", zp, zseq, 5000, 10000, 10001, 5000},
		{"pair scan", pp, pseq, 4999, 5000, 10000, 4999},
	} {
		p := fx.p
		tab := core.Compute(p)
		k := p.CompileKernel()

		vecOPS := func(cfg OPSConfig) *OPS {
			o := NewOPS(p, tab, cfg)
			o.UseKernel(k)
			o.SetVectorized(true)
			return o
		}
		pureOPS := vecOPS(OPSConfig{})
		genericOPS := vecOPS(OPSConfig{LastRowSkip: true}) // an ablation config keeps the generic loop
		naive := NewNaive(p, SkipPastLastRow)
		naive.UseKernel(k)
		naive.SetVectorized(true)
		for _, c := range []struct {
			name string
			ex   Executor
		}{
			{"ops-vec (pure loop)", pureOPS},
			{"ops+skip-vec (generic loop)", genericOPS},
			{"naive-vec", naive},
			{"ops (interpreter)", NewOPS(p, tab, OPSConfig{})},
		} {
			calls := int64(0)
			c.ex.SetInterrupt(func() error { calls++; return nil })
			ms, st := c.ex.FindAll(fx.seq)
			if len(ms) != 1 || ms[0].Start != fx.start || ms[0].End != fx.end {
				t.Fatalf("%s, %s: matches %s", fx.name, c.name, fmtMatches(ms))
			}
			if st.PredEvals != fx.evals {
				t.Fatalf("%s, %s: %d pred-evals, want %d", fx.name, c.name, st.PredEvals, fx.evals)
			}
			if calls != st.PredEvals>>10 {
				t.Errorf("%s, %s: interrupt consulted %d times over %d pred-evals, want %d", fx.name, c.name, calls, st.PredEvals, st.PredEvals>>10)
			}
		}
		if !pureOPS.ranPure || genericOPS.ranPure {
			t.Fatalf("%s: loop selection: pure=%v generic=%v", fx.name, pureOPS.ranPure, genericOPS.ranPure)
		}
		if pureOPS.pairRows != fx.pairRows {
			t.Fatalf("%s: the pair scans resolved %d rows, want %d", fx.name, pureOPS.pairRows, fx.pairRows)
		}
	}
}

// TestPureLoopInterrupt: an interrupt raised at the k-th checkpoint of a
// single 1,000,000-row star run, or of a single pair scan over 5,000 rows,
// unwinds the pure loop with that error — each is one word scan, but not
// one uninterruptible step.
func TestPureLoopInterrupt(t *testing.T) {
	sp, sseq := longRunFixture(t, 0, 1_000_000)
	pp, pseq := pairRunFixture(t, 5000)
	for _, fx := range []struct {
		name  string
		p     *pattern.Pattern
		seq   []storage.Row
		at    []int64
		end   int
		evals int64
	}{
		{"star run", sp, sseq, []int64{1, 2, 500, 976}, 1_000_000, 1_000_001},
		{"pair scan", pp, pseq, []int64{1, 2, 9}, 5000, 10000},
	} {
		o := NewOPS(fx.p, core.Compute(fx.p), OPSConfig{})
		o.UseKernel(fx.p.CompileKernel())
		o.SetVectorized(true)
		stop := errors.New("stop")
		for _, at := range fx.at {
			calls := int64(0)
			o.SetInterrupt(func() error {
				calls++
				if calls == at {
					return stop
				}
				return nil
			})
			err := func() (err error) {
				defer func() {
					if it, ok := recover().(Interrupt); ok {
						err = it.Err
					}
				}()
				o.FindAll(fx.seq)
				return nil
			}()
			if !errors.Is(err, stop) || calls != at {
				t.Fatalf("%s: interrupt at checkpoint %d: err=%v after %d calls", fx.name, at, err, calls)
			}
			if !o.ranPure {
				t.Fatalf("%s: the long run did not take the pure loop", fx.name)
			}
		}
		o.SetInterrupt(nil)
		ms, st := o.FindAll(fx.seq)
		if len(ms) != 1 || ms[0].End != fx.end || st.PredEvals != fx.evals {
			t.Fatalf("%s: uninterrupted rerun: %s %+v", fx.name, fmtMatches(ms), st)
		}
	}
}
