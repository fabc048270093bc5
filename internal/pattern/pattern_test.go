package pattern

import (
	"strings"
	"testing"

	"sqlts/internal/constraint"
	"sqlts/internal/storage"
)

func schema(t *testing.T) *storage.Schema {
	t.Helper()
	return storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
	)
}

func ctxFor(prices []float64, pos int) *EvalContext {
	seq := make([]storage.Row, len(prices))
	for i, p := range prices {
		seq[i] = storage.Row{storage.NewString("IBM"), storage.NewDateDays(int64(i)), storage.NewFloat(p)}
	}
	return &EvalContext{Seq: storage.RowSeq(seq), Pos: pos, Bind: make([]Span, 4)}
}

func TestCompileValidation(t *testing.T) {
	s := schema(t)
	cases := []struct {
		name  string
		elems []Element
		opts  Options
		frag  string
	}{
		{"empty", nil, Options{}, "empty pattern"},
		{"unnamed", []Element{{}}, Options{}, "no name"},
		{"dup", []Element{{Name: "X"}, {Name: "X"}}, Options{}, "duplicate"},
		{"bad col", []Element{{Name: "X", Local: []Cond{FieldConst(9, Cur, constraint.Lt, 1)}}}, Options{}, "out of range"},
		{"str col as num", []Element{{Name: "X", Local: []Cond{FieldConst(0, Cur, constraint.Lt, 1)}}}, Options{}, "want numeric"},
		{"num col as str", []Element{{Name: "X", Local: []Cond{FieldStr(2, Cur, constraint.Eq, "x")}}}, Options{}, "want VARCHAR"},
		{"bad positive", []Element{{Name: "X"}}, Options{PositiveColumns: []string{"nosuch"}}, "not in schema"},
		{"nonnumeric positive", []Element{{Name: "X"}}, Options{PositiveColumns: []string{"name"}}, "not numeric"},
		{"opaque no fn", []Element{{Name: "X", Local: []Cond{{Kind: OpaqueCond, Key: "k"}}}}, Options{}, "needs key and fn"},
		{"cross no fn", []Element{{Name: "X", CrossConds: []Cond{{Kind: CrossCond, Key: "k"}}}}, Options{}, "needs key and fn"},
	}
	for _, c := range cases {
		if _, err := Compile(s, c.elems, c.opts); err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.frag)
		}
	}
}

func TestEvalCondForms(t *testing.T) {
	s := schema(t)
	b := NewBuilder(s).WithOptions(Options{PositiveColumns: []string{"price"}})
	p := b.Elem("X",
		b.CmpConst("price", Cur, constraint.Gt, 50),    // price > 50
		b.CmpPrev("price", constraint.Gt),              // price > prev
		b.CmpPrevScaled("price", constraint.Lt, 1.10),  // price < 1.1*prev
		b.CmpStr("name", Cur, constraint.Eq, "IBM"),    // name = 'IBM'
		FieldField(2, Cur, constraint.Le, 2, Prev, 10), // price <= prev + 10
		FieldStrField(0, Cur, constraint.Eq, 0, Prev),  // name = prev name
		Opaque("even-day", func(cur, prev storage.Row) bool { // custom
			return cur[1].DateDays()%2 == 0
		}),
	).MustBuild()

	// pos=2 in 40, 52, 56: all conditions hold.
	if !p.EvalElem(0, ctxFor([]float64{40, 52, 56}, 2)) {
		t.Error("all-true case failed")
	}
	// price <= prev+10 violated: 70 vs 52+10.
	if p.EvalElem(0, ctxFor([]float64{40, 52, 70}, 2)) {
		t.Error("scaled/offset violation not caught")
	}
	// price > 50 violated.
	if p.EvalElem(0, ctxFor([]float64{40, 44, 45}, 2)) {
		t.Error("const violation not caught")
	}
	// odd position fails the opaque condition.
	if p.EvalElem(0, ctxFor([]float64{40, 52, 56, 57}, 3)) {
		t.Error("opaque violation not caught")
	}
}

func TestMissingPrevPolicies(t *testing.T) {
	s := schema(t)
	for _, policy := range []bool{false, true} {
		b := NewBuilder(s).WithOptions(Options{MissingPrevTrue: policy})
		p := b.Elem("X", b.CmpPrev("price", constraint.Gt)).MustBuild()
		got := p.EvalElem(0, ctxFor([]float64{10, 20}, 0))
		if got != policy {
			t.Errorf("policy %v: first-tuple eval = %v", policy, got)
		}
		// With a predecessor the policy is irrelevant.
		if !p.EvalElem(0, ctxFor([]float64{10, 20}, 1)) {
			t.Errorf("policy %v: normal eval failed", policy)
		}
	}
}

func TestNullValuesFailConditions(t *testing.T) {
	s := schema(t)
	b := NewBuilder(s)
	p := b.Elem("X", b.CmpConst("price", Cur, constraint.Gt, 0)).MustBuild()
	seq := []storage.Row{{storage.NewString("IBM"), storage.NewDateDays(0), storage.Null}}
	if p.EvalElem(0, &EvalContext{Seq: storage.RowSeq(seq), Pos: 0}) {
		t.Error("NULL price satisfied price > 0")
	}
}

func TestRatioTransform(t *testing.T) {
	s := schema(t)

	// With price declared positive, cur < 0.98*prev becomes a ratio atom,
	// so two such conditions relate logically.
	b := NewBuilder(s).WithOptions(Options{PositiveColumns: []string{"price"}})
	p := b.Elem("A", b.CmpPrevScaled("price", constraint.Lt, 0.98)).
		Elem("B", b.CmpPrevScaled("price", constraint.Gt, 1.02)).
		MustBuild()
	if !p.Elems[0].Sys.Excludes(p.Elems[1].Sys) {
		t.Error("ratio atoms should make fall/rise mutually exclusive")
	}

	// Without the positive declaration the transform must not fire;
	// conditions become opaque and unrelated.
	b2 := NewBuilder(s)
	p2 := b2.Elem("A", b2.CmpPrevScaled("price", constraint.Lt, 0.98)).
		Elem("B", b2.CmpPrevScaled("price", constraint.Gt, 1.02)).
		MustBuild()
	if p2.Elems[0].Sys.Excludes(p2.Elems[1].Sys) {
		t.Error("transform fired without the positive-domain declaration")
	}
	if len(p2.Elems[0].Sys.Ds[0].Opaque) != 1 {
		t.Errorf("expected opaque atom, got %s", p2.Elems[0].Sys)
	}

	// Both orientations map onto the same ratio variable: prev < c*cur
	// with c=1/0.98 is equivalent to cur > 0.98*prev.
	b3 := NewBuilder(s).WithOptions(Options{PositiveColumns: []string{"price"}})
	p3 := b3.Elem("A", FieldScaled(2, Prev, constraint.Lt, 1/0.98, 2, Cur)).
		Elem("B", b3.CmpPrevScaled("price", constraint.Gt, 0.98)).
		MustBuild()
	if !p3.Elems[0].Sys.Implies(p3.Elems[1].Sys) || !p3.Elems[1].Sys.Implies(p3.Elems[0].Sys) {
		t.Errorf("flipped orientation not unified: %s vs %s", p3.Elems[0].Sys, p3.Elems[1].Sys)
	}

	// Negative coefficients cannot be ratio-transformed.
	b4 := NewBuilder(s).WithOptions(Options{PositiveColumns: []string{"price"}})
	p4 := b4.Elem("A", b4.CmpPrevScaled("price", constraint.Lt, -2)).MustBuild()
	if len(p4.Elems[0].Sys.Ds[0].Opaque) != 1 {
		t.Errorf("negative coefficient should be opaque: %s", p4.Elems[0].Sys)
	}
}

func TestCrossCondition(t *testing.T) {
	s := schema(t)
	b := NewBuilder(s)
	b.Elem("X").Elem("Y").CrossOn("Y > 2*X", func(ctx *EvalContext) bool {
		x := ctx.Bind[0]
		return x.Set && ctx.Seq.At(ctx.Pos, 2).Float() > 2*ctx.Seq.At(x.Start, 2).Float()
	})
	p := b.MustBuild()
	if !p.Elems[1].HasCross() || p.Elems[0].HasCross() {
		t.Fatal("cross flags wrong")
	}
	ctx := ctxFor([]float64{10, 25}, 1)
	ctx.Bind[0] = Span{Start: 0, End: 0, Set: true}
	if !p.EvalElem(1, ctx) {
		t.Error("cross condition should hold (25 > 20)")
	}
	ctx2 := ctxFor([]float64{10, 15}, 1)
	ctx2.Bind[0] = Span{Start: 0, End: 0, Set: true}
	if p.EvalElem(1, ctx2) {
		t.Error("cross condition should fail (15 < 20)")
	}
}

func TestCrossOnWithoutElement(t *testing.T) {
	b := NewBuilder(schema(t))
	b.CrossOn("x", func(*EvalContext) bool { return true })
	if _, err := b.Build(); err == nil {
		t.Error("CrossOn before any element should fail")
	}
}

func TestBuilderUnknownColumn(t *testing.T) {
	b := NewBuilder(schema(t))
	b.Elem("X", b.CmpConst("nosuch", Cur, constraint.Lt, 1))
	if _, err := b.Build(); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestPatternString(t *testing.T) {
	b := NewBuilder(schema(t))
	p := b.Elem("X").Star("Y").Elem("Z").MustBuild()
	if p.String() != "(X, *Y, Z)" {
		t.Errorf("String = %q", p.String())
	}
	if p.Len() != 3 {
		t.Errorf("Len = %d", p.Len())
	}
}

func TestSpanLen(t *testing.T) {
	if (Span{}).Len() != 0 {
		t.Error("unset span length should be 0")
	}
	if (Span{Start: 2, End: 5, Set: true}).Len() != 4 {
		t.Error("span length wrong")
	}
}

func TestCondString(t *testing.T) {
	cases := []struct {
		c    Cond
		want string
	}{
		{FieldConst(2, Cur, constraint.Lt, 10), "cur.2 < 10"},
		{FieldField(2, Cur, constraint.Ge, 2, Prev, 0), "cur.2 >= prev.2"},
		{FieldField(2, Cur, constraint.Le, 2, Prev, 1.5), "cur.2 <= prev.2 + 1.5"},
		{FieldScaled(2, Cur, constraint.Gt, 1.02, 2, Prev), "cur.2 > 1.02 * prev.2"},
		{FieldStr(0, Cur, constraint.Eq, "IBM"), `cur.0 = "IBM"`},
		{FieldStrField(0, Cur, constraint.Ne, 0, Prev), "cur.0 <> prev.0"},
		{Opaque("f(x)", func(_, _ storage.Row) bool { return true }), "f(x)"},
		{Cross("g(x)", func(*EvalContext) bool { return true }), "cross:g(x)"},
	}
	for _, c := range cases {
		if got := c.c.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestEvalContextAccessors(t *testing.T) {
	ctx := ctxFor([]float64{1, 2}, 0)
	if _, ok := ctx.Prev(); ok {
		t.Error("Prev at pos 0 should not exist")
	}
	ctx.Pos = 1
	if prev, ok := ctx.Prev(); !ok || prev[2].Float() != 1 {
		t.Error("Prev at pos 1 wrong")
	}
	if ctx.Cur()[2].Float() != 2 {
		t.Error("Cur wrong")
	}
}

func TestDateConditions(t *testing.T) {
	s := schema(t)
	b := NewBuilder(s)
	// date > day 1 (dates are numeric for condition purposes).
	p := b.Elem("X", b.CmpConst("date", Cur, constraint.Gt, 1)).MustBuild()
	if p.EvalElem(0, ctxFor([]float64{5, 6}, 1)) {
		t.Error("day 1 should not be > 1")
	}
	ctx := ctxFor([]float64{5, 6, 7}, 2)
	if !p.EvalElem(0, ctx) {
		t.Error("day 2 should be > 1")
	}
}
