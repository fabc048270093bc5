package query

import (
	"strings"
	"testing"

	"sqlts/internal/pattern"
	"sqlts/internal/storage"
)

func testSchema(t *testing.T) *storage.Schema {
	t.Helper()
	return storage.MustSchema(
		storage.Column{Name: "name", Type: storage.TypeString},
		storage.Column{Name: "date", Type: storage.TypeDate},
		storage.Column{Name: "price", Type: storage.TypeFloat},
		storage.Column{Name: "volume", Type: storage.TypeInt},
	)
}

func analyzeSelect(t *testing.T, sql string, opts AnalyzeOptions) *Compiled {
	t.Helper()
	st, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Analyze(st.(*SelectStmt), testSchema(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAnalyzeLocalShapes(t *testing.T) {
	c := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y)
		WHERE X.price = 10
		  AND X.price < X.previous.price
		  AND X.price <= X.previous.price + 5
		  AND Y.price > 1.15 * X.price
		  AND Y.name = 'IBM'
		  AND Y.date = '1999-01-25'
		  AND X.price / 2 < 30`,
		AnalyzeOptions{PositiveColumns: []string{"price"}})
	p := c.Pattern

	countKinds := func(e pattern.Element) map[pattern.CondKind]int {
		m := map[pattern.CondKind]int{}
		for _, cd := range e.Local {
			m[cd.Kind]++
		}
		return m
	}
	x := countKinds(p.Elems[0])
	if x[pattern.NumFieldConst] != 2 { // price = 10, price/2 < 30 → price < 60
		t.Errorf("X const conds = %d: %+v", x[pattern.NumFieldConst], p.Elems[0].Local)
	}
	if x[pattern.NumFieldField] != 2 { // plain and +5 forms
		t.Errorf("X field-field conds = %d", x[pattern.NumFieldField])
	}
	y := countKinds(p.Elems[1])
	if y[pattern.NumFieldScaled] != 1 { // adjacent rewrite of 1.15*X.price
		t.Errorf("Y scaled conds = %d: %+v", y[pattern.NumFieldScaled], p.Elems[1].Local)
	}
	if y[pattern.StrFieldLit] != 1 {
		t.Errorf("Y string conds = %d", y[pattern.StrFieldLit])
	}
	if y[pattern.NumFieldConst] != 1 { // date literal folded to a date constant
		t.Errorf("Y date conds = %d: %+v", y[pattern.NumFieldConst], p.Elems[1].Local)
	}
	if p.Elems[0].HasCross() || p.Elems[1].HasCross() {
		t.Error("no cross conditions expected")
	}
}

func TestAnalyzeAdjacentRewriteRequiresPlain(t *testing.T) {
	// Y is starred: Y.price > X.price cannot be a per-tuple prev
	// reference and must become a cross condition.
	c := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, *Y)
		WHERE Y.price > X.price AND Y.price > 0`, AnalyzeOptions{})
	if !c.Pattern.Elems[1].HasCross() {
		t.Error("starred Y with X reference should produce a cross condition")
	}
	// Non-adjacent reference is also cross.
	c = analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y, Z)
		WHERE Z.price > X.price`, AnalyzeOptions{})
	if !c.Pattern.Elems[2].HasCross() {
		t.Error("non-adjacent reference should produce a cross condition")
	}
}

func TestAnalyzeDisjunction(t *testing.T) {
	// OR of analyzable single-variable comparisons compiles to a DNF
	// formula the optimizer can reason about (§8 extension).
	c := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y)
		WHERE (X.price < 10 OR X.price > 90) AND Y.price >= 10 AND Y.price <= 90`, AnalyzeOptions{})
	x, y := c.Pattern.Elems[0].Sys, c.Pattern.Elems[1].Sys
	if len(x.Ds) != 2 {
		t.Fatalf("X should have two disjuncts: %s", x)
	}
	// The tails exclude the middle band.
	if !x.Excludes(y) {
		t.Errorf("(%s) should exclude (%s)", x, y)
	}

	// Identical disjunctions on different elements imply each other.
	c2 := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y)
		WHERE (X.price < 10 OR X.price > 90) AND (Y.price < 10 OR Y.price > 90)`, AnalyzeOptions{})
	if !c2.Pattern.Elems[1].Sys.Implies(c2.Pattern.Elems[0].Sys) {
		t.Error("identical disjunctions should imply each other")
	}
	// A tighter disjunction implies a looser one.
	c3 := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y)
		WHERE (X.price < 5 OR X.price > 95) AND (Y.price < 10 OR Y.price > 90)`, AnalyzeOptions{})
	if !c3.Pattern.Elems[0].Sys.Implies(c3.Pattern.Elems[1].Sys) {
		t.Error("tighter disjunction should imply looser")
	}
}

func TestAnalyzeOpaqueLocal(t *testing.T) {
	// Non-linear but alignment-independent: an opaque local condition
	// with a canonical cur/prev key.
	c := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y)
		WHERE X.price + X.volume > 90`, AnalyzeOptions{})
	e := c.Pattern.Elems[0]
	if len(e.Sys.Ds) != 1 || len(e.Sys.Ds[0].Opaque) != 1 {
		t.Fatalf("opaque atoms = %v", e.Sys)
	}
	key := e.Sys.Ds[0].Opaque[0].Key
	if !strings.Contains(key, "cur.price") || strings.Contains(key, "X.") {
		t.Errorf("canonical key should be variable-free: %q", key)
	}

	// The same condition on the other element must produce the same key,
	// so θ can relate them.
	c2 := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, Y)
		WHERE X.price + X.volume > 90 AND Y.price + Y.volume > 90`, AnalyzeOptions{})
	k0 := c2.Pattern.Elems[0].Sys.Ds[0].Opaque[0].Key
	k1 := c2.Pattern.Elems[1].Sys.Ds[0].Opaque[0].Key
	if k0 != k1 {
		t.Errorf("keys differ: %q vs %q", k0, k1)
	}
	if !c2.Pattern.Elems[1].Sys.Implies(c2.Pattern.Elems[0].Sys) {
		t.Error("identical opaque conditions should imply each other")
	}
}

func TestAnalyzeConstantFolding(t *testing.T) {
	c := analyzeSelect(t, `SELECT X.price FROM quote AS (X, Y) WHERE 1 < 2 AND X.price > 0`, AnalyzeOptions{})
	if c.AlwaysEmpty() {
		t.Error("true constant should not empty the query")
	}
	c = analyzeSelect(t, `SELECT X.price FROM quote AS (X, Y) WHERE 2 < 1 AND X.price > 0`, AnalyzeOptions{})
	if !c.AlwaysEmpty() {
		t.Error("false constant should empty the query")
	}
}

func TestAnalyzeRatioViaSQL(t *testing.T) {
	// Through SQL, 0.98*Z.previous.price < Z.price must land on the same
	// ratio variable as Z.price < 1.02*Z.previous.price.
	c := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, *Y)
		WHERE 0.98 * Y.previous.price < Y.price AND Y.price < 1.02 * Y.previous.price
		  AND X.price < 0.98 * X.previous.price`,
		AnalyzeOptions{PositiveColumns: []string{"price"}})
	y := c.Pattern.Elems[1].Sys
	x := c.Pattern.Elems[0].Sys
	if len(y.Ds) != 1 || len(y.Ds[0].Num) != 2 || len(y.Ds[0].Opaque) != 0 {
		t.Fatalf("Y system = %s", y)
	}
	if !x.Excludes(y) {
		t.Errorf("fall (%s) should exclude flat (%s)", x, y)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	cases := []struct{ sql, frag string }{
		{`SELECT price FROM quote AS (X, Y) WHERE X.price > 0`, "unqualified column"},
		{`SELECT X.price FROM quote AS (X, Y) WHERE price > 0`, "unqualified column"},
		{`SELECT X.price FROM quote AS (X, Y) WHERE X.previous.previous.price > 0`, "chained navigation"},
		{`SELECT X.price FROM quote AS (X, Y) WHERE LAST(Y).price > Y.price`, "before it is complete"},
		{`SELECT X.price FROM quote AS (*X, Y) WHERE Y.price > X.price`, "star variable"},
		{`SELECT X.price FROM quote AS (X, Y) WHERE X.nosuch > 0`, "no column"},
	}
	for _, c := range cases {
		st, err := Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		_, err = Analyze(st.(*SelectStmt), testSchema(t), AnalyzeOptions{})
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("Analyze(%q) err = %v, want containing %q", c.sql, err, c.frag)
		}
	}
}

func TestAnalyzeCrossWithSpanFunctions(t *testing.T) {
	// LAST(Y) of an earlier star element is legal in a later condition.
	c := analyzeSelect(t, `
		SELECT X.price FROM quote AS (X, *Y, Z)
		WHERE Y.price < Y.previous.price AND Z.price > LAST(Y).price`, AnalyzeOptions{})
	if !c.Pattern.Elems[2].HasCross() {
		t.Fatal("LAST(Y) reference should be a cross condition on Z")
	}

	seq := []storage.Row{
		{storage.NewString("A"), storage.NewDateDays(0), storage.NewFloat(10), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(1), storage.NewFloat(8), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(2), storage.NewFloat(6), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(3), storage.NewFloat(9), storage.NewInt(0)},
	}
	ctx := &pattern.EvalContext{Seq: storage.RowSeq(seq), Pos: 3, Bind: make([]pattern.Span, 3)}
	ctx.Bind[0] = pattern.Span{Start: 0, End: 0, Set: true}
	ctx.Bind[1] = pattern.Span{Start: 1, End: 2, Set: true}
	if !c.Pattern.EvalElem(2, ctx) {
		t.Error("Z at 9 > LAST(Y) at 6 should hold")
	}
}

func TestEvalSelectNavigation(t *testing.T) {
	c := analyzeSelect(t, `
		SELECT FIRST(Y).price, LAST(Y).price, Y.previous.price, Y.next.price,
		       X.price, X.next.date
		FROM quote AS (X, *Y, Z)
		WHERE Y.price < Y.previous.price`, AnalyzeOptions{})
	seq := []storage.Row{
		{storage.NewString("A"), storage.NewDateDays(10), storage.NewFloat(10), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(11), storage.NewFloat(8), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(12), storage.NewFloat(6), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(13), storage.NewFloat(9), storage.NewInt(0)},
	}
	spans := []pattern.Span{
		{Start: 0, End: 0, Set: true},
		{Start: 1, End: 2, Set: true},
		{Start: 3, End: 3, Set: true},
	}
	row, err := c.EvalSelect(seq, spans)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{8, 6, 10, 9, 10}
	for i, w := range want {
		if row[i].Float() != w {
			t.Errorf("col %d = %v, want %g", i, row[i], w)
		}
	}
	if row[5].DateDays() != 11 { // X.next = first tuple after X's span
		t.Errorf("X.next.date = %v", row[5])
	}
}

func TestEvalSelectOutOfRangeIsNull(t *testing.T) {
	c := analyzeSelect(t, `
		SELECT X.previous.price FROM quote AS (X, Y)
		WHERE Y.price > X.price`, AnalyzeOptions{})
	seq := []storage.Row{
		{storage.NewString("A"), storage.NewDateDays(10), storage.NewFloat(1), storage.NewInt(0)},
		{storage.NewString("A"), storage.NewDateDays(11), storage.NewFloat(2), storage.NewInt(0)},
	}
	spans := []pattern.Span{{Start: 0, End: 0, Set: true}, {Start: 1, End: 1, Set: true}}
	row, err := c.EvalSelect(seq, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !row[0].IsNull() {
		t.Errorf("X.previous before start should be NULL, got %v", row[0])
	}
}

func TestOutNamesAndTypes(t *testing.T) {
	c := analyzeSelect(t, `
		SELECT X.name, X.price AS p, X.price * 2, X.price > 1, X.date
		FROM quote AS (X, Y) WHERE X.price > 0`, AnalyzeOptions{})
	wantNames := []string{"X.name", "p", "(X.price * 2)", "(X.price > 1)", "X.date"}
	for i, w := range wantNames {
		if c.OutNames[i] != w {
			t.Errorf("name %d = %q, want %q", i, c.OutNames[i], w)
		}
	}
	wantTypes := []storage.Type{storage.TypeString, storage.TypeFloat, storage.TypeFloat, storage.TypeBool, storage.TypeDate}
	for i, w := range wantTypes {
		if c.OutTypes[i] != w {
			t.Errorf("type %d = %v, want %v", i, c.OutTypes[i], w)
		}
	}
}

func TestExample1MatricesThroughSQL(t *testing.T) {
	// The Example 1 conditions relate across elements via the adjacent
	// rewrite; check that the optimizer sees exclusions where expected.
	c := analyzeSelect(t, `
		SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z)
		WHERE Y.price > 1.15 * X.price AND Z.price < 0.80 * Y.price`,
		AnalyzeOptions{PositiveColumns: []string{"price"}})
	y, z := c.Pattern.Elems[1].Sys, c.Pattern.Elems[2].Sys
	// rise >15% and fall >20% on the same step are mutually exclusive.
	if !y.Excludes(z) {
		t.Errorf("spike (%s) should exclude crash (%s)", y, z)
	}
}

func TestEvalConstErrors(t *testing.T) {
	st, err := Parse(`SELECT a FROM t WHERE a > 0`)
	if err != nil {
		t.Fatal(err)
	}
	where := st.(*SelectStmt).Where
	if _, err := EvalConst(where); err == nil {
		t.Error("EvalConst with field refs should fail")
	}
	if v, err := EvalConst(&NumberLit{Text: "3", Value: 3, IsInt: true}); err != nil || v.Int() != 3 {
		t.Errorf("EvalConst(3) = %v, %v", v, err)
	}
}

func TestEvalExprSemantics(t *testing.T) {
	nullEnv := func(*FieldRef) (storage.Value, bool) { return storage.Null, false }
	cases := []struct {
		sql  string
		want storage.Value
	}{
		{"1 + 2", storage.NewInt(3)},
		{"1 + 2.5", storage.NewFloat(3.5)},
		{"7 / 2", storage.NewFloat(3.5)},
		{"7 * -2", storage.NewInt(-14)},
		{"1 / 0", storage.Null},
		{"1 < 2", storage.NewBool(true)},
		{"'a' < 'b'", storage.NewBool(true)},
		{"'a' = 'a'", storage.NewBool(true)},
		{"1 = 1 AND 2 = 2", storage.NewBool(true)},
		{"1 = 2 OR 2 = 2", storage.NewBool(true)},
		{"NOT 1 = 2", storage.NewBool(true)},
		{"NULL = 1", storage.NewBool(false)},
		{"NULL + 1", storage.Null},
		{"TRUE", storage.NewBool(true)},
	}
	for _, c := range cases {
		st, err := Parse("SELECT " + c.sql + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		v, err := evalExpr(st.(*SelectStmt).Items[0].Expr, nullEnv)
		if err != nil {
			t.Errorf("eval %q: %v", c.sql, err)
			continue
		}
		if v.Type() != c.want.Type() || (!v.IsNull() && !v.Equal(c.want)) {
			t.Errorf("eval %q = %v (%v), want %v (%v)", c.sql, v, v.Type(), c.want, c.want.Type())
		}
	}
	// Type errors surface as errors.
	for _, bad := range []string{"'a' + 1", "NOT 1", "-'a'", "1 < 'a'"} {
		st, err := Parse("SELECT " + bad + " FROM t")
		if err != nil {
			t.Fatalf("parse %q: %v", bad, err)
		}
		if _, err := evalExpr(st.(*SelectStmt).Items[0].Expr, nullEnv); err == nil {
			t.Errorf("eval %q should fail", bad)
		}
	}
}

func TestDateArithmetic(t *testing.T) {
	env := func(f *FieldRef) (storage.Value, bool) {
		return storage.NewDateDays(100), true
	}
	st, err := Parse("SELECT d + 5 FROM t")
	if err != nil {
		t.Fatal(err)
	}
	v, err := evalExpr(st.(*SelectStmt).Items[0].Expr, env)
	if err != nil || v.DateDays() != 105 {
		t.Errorf("date+int = %v, %v", v, err)
	}
	st, _ = Parse("SELECT d - 5 FROM t")
	v, err = evalExpr(st.(*SelectStmt).Items[0].Expr, env)
	if err != nil || v.DateDays() != 95 {
		t.Errorf("date-int = %v, %v", v, err)
	}
	st, _ = Parse("SELECT d = '1970-04-11' FROM t")
	v, err = evalExpr(st.(*SelectStmt).Items[0].Expr, env)
	if err != nil || !v.Bool() {
		t.Errorf("date vs string literal = %v, %v", v, err)
	}
}
