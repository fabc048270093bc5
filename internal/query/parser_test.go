package query

import (
	"fmt"
	"strings"
	"testing"

	"sqlts/internal/storage"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex(`SELECT X.name, 1.5e2 FROM quote -- comment
		WHERE X.price <> 'don''t' >= <= -> ;`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"SELECT", "X", ".", "name", ",", "1.5e2", "FROM", "quote",
		"WHERE", "X", ".", "price", "<>", "don't", ">=", "<=", "->", ";", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokKeyword || kinds[1] != TokIdent || kinds[5] != TokNumber {
		t.Error("token kinds wrong")
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("SELECT\n  X")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Line != 1 || toks[0].Col != 1 {
		t.Errorf("first token at %d:%d", toks[0].Line, toks[0].Col)
	}
	if toks[1].Line != 2 || toks[1].Col != 3 {
		t.Errorf("second token at %d:%d", toks[1].Line, toks[1].Col)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex("'unterminated"); err == nil {
		t.Error("unterminated string accepted")
	}
	if _, err := Lex("a @ b"); err == nil {
		t.Error("bad character accepted")
	}
}

// TestLexNonASCII: a Unicode letter starts a word and a Unicode letter,
// digit or '_' continues one, so a non-ASCII identifier is one token with
// its text as written; keywords are ASCII, so no non-ASCII word is one.
// A character no token starts with is named as written in the error, and
// a byte that does not begin UTF-8 by its value. Columns count
// characters, in a lex error, a parse error and Lex's tokens alike.
func TestLexNonASCII(t *testing.T) {
	for src, want := range map[string][]string{
		"SELECT prix_é FROM t": {"SELECT", "prix_é", "FROM", "t", ""},
		"SELECT é FROM t":      {"SELECT", "é", "FROM", "t", ""},
		"Größe٣_x>été":         {"Größe٣_x", ">", "été", ""},
		"ſelect":               {"ſelect", ""},
	} {
		toks, err := Lex(src)
		if err != nil {
			t.Errorf("Lex(%q): %v", src, err)
			continue
		}
		var got []string
		for _, tk := range toks {
			got = append(got, tk.Text)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("Lex(%q) = %q, want %q", src, got, want)
		}
		if k := toks[0].Kind; (k == TokKeyword) != (toks[0].Text == "SELECT") {
			t.Errorf("Lex(%q): the first token is of kind %v", src, k)
		}
	}
	for src, want := range map[string]string{
		"'naïve' ´":           `sql-ts: line 1:9: unexpected character "´"`,
		"SELECT a € b":        `sql-ts: line 1:10: unexpected character "€"`,
		"SELECT a\n  \xff b":  `sql-ts: line 2:3: invalid UTF-8 byte 0xff`,
		"SELECT ٣a":           `sql-ts: line 1:8: unexpected character "٣"`,
		"x = 'déjà vu' AND 🙂": `sql-ts: line 1:19: unexpected character "🙂"`,
	} {
		if _, err := Lex(src); err == nil || err.Error() != want {
			t.Errorf("Lex(%q) = %v, want %s", src, err, want)
		}
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
	for src, want := range map[string]string{
		"SELECT prix_é, FROM t":     `sql-ts: line 1:16: unexpected "FROM" in expression`,
		"SELECT été\n  FROM ñ ,, x": `sql-ts: line 2:10: unexpected "," after statement`,
	} {
		if _, err := Parse(src); err == nil || err.Error() != want {
			t.Errorf("Parse(%q) = %v, want %s", src, err, want)
		}
	}
	toks, err := Lex("Größe٣_x>été\n é 'ñ'' x' ü")
	if err != nil {
		t.Fatal(err)
	}
	var cols []string
	for _, tk := range toks {
		cols = append(cols, fmt.Sprintf("%d:%d", tk.Line, tk.Col))
	}
	if got, want := strings.Join(cols, " "), "1:1 1:9 1:10 2:2 2:4 2:12 2:13"; got != want {
		t.Errorf("Lex's token positions are %s, want %s", got, want)
	}
	st, err := Parse("SELECT X.prix_é FROM t AS (X) WHERE X.prix_é > 1")
	if err != nil {
		t.Fatal(err)
	}
	if r := Render(st); !strings.Contains(r, "X.prix_é") {
		t.Errorf("rendered %q", r)
	}
}

func TestParseSelectFull(t *testing.T) {
	st, err := Parse(`
		SELECT X.name, FIRST(X).date AS sdate, LAST(Z).date AS edate
		FROM quote
		  CLUSTER BY name
		  SEQUENCE BY date
		  AS (*X, Y, *Z)
		WHERE X.price > X.previous.price AND Y.price < 40 OR NOT Z.price = 1`)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.(*SelectStmt)
	if sel.Table != "quote" || len(sel.Items) != 3 {
		t.Fatalf("basic shape wrong: %+v", sel)
	}
	if sel.Items[1].Alias != "sdate" {
		t.Error("alias lost")
	}
	if len(sel.Pattern) != 3 || !sel.Pattern[0].Star || sel.Pattern[1].Star || !sel.Pattern[2].Star {
		t.Errorf("pattern = %+v", sel.Pattern)
	}
	if sel.ClusterBy[0] != "name" || sel.SequenceBy[0] != "date" {
		t.Error("cluster/sequence lost")
	}
	// OR binds looser than AND.
	or, ok := sel.Where.(*BinaryExpr)
	if !ok || or.Op != "OR" {
		t.Fatalf("top-level op = %v", sel.Where)
	}
	if and, ok := or.L.(*BinaryExpr); !ok || and.Op != "AND" {
		t.Error("AND should bind tighter than OR")
	}
	if not, ok := or.R.(*UnaryExpr); !ok || not.Op != "NOT" {
		t.Error("NOT parse failed")
	}
}

func TestParseArrowNavigation(t *testing.T) {
	st, err := Parse(`SELECT Z.previous->date FROM quote AS (X, Z) WHERE Z.price > 1`)
	if err != nil {
		t.Fatal(err)
	}
	ref := st.(*SelectStmt).Items[0].Expr.(*FieldRef)
	if ref.Var != "Z" || len(ref.Navs) != 1 || ref.Navs[0] != NavPrevious || ref.Field != "date" {
		t.Errorf("ref = %+v", ref)
	}
}

func TestParseChainedNavigation(t *testing.T) {
	st, err := Parse(`SELECT X.previous.previous.price FROM quote AS (X) WHERE X.price > 0`)
	if err != nil {
		t.Fatal(err)
	}
	ref := st.(*SelectStmt).Items[0].Expr.(*FieldRef)
	if len(ref.Navs) != 2 {
		t.Errorf("navs = %v", ref.Navs)
	}
}

func TestParsePrecedence(t *testing.T) {
	st, err := Parse(`SELECT a FROM t WHERE a + 2 * b < -c - 1`)
	if err != nil {
		t.Fatal(err)
	}
	got := st.(*SelectStmt).Where.String()
	want := "((a + (2 * b)) < ((-c) - 1))"
	if got != want {
		t.Errorf("precedence: %s, want %s", got, want)
	}
}

func TestParseCreateInsert(t *testing.T) {
	stmts, err := ParseScript(`
		CREATE TABLE quote (name Varchar(8), date Date, price Integer);
		INSERT INTO quote VALUES ('IBM', '1999-01-25', 81), ('IBM', '1999-01-26', 80);
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 2 {
		t.Fatalf("%d statements", len(stmts))
	}
	ct := stmts[0].(*CreateTableStmt)
	if ct.Name != "quote" || len(ct.Columns) != 3 {
		t.Fatalf("create = %+v", ct)
	}
	if ct.Columns[0].Type != storage.TypeString || ct.Columns[1].Type != storage.TypeDate || ct.Columns[2].Type != storage.TypeInt {
		t.Error("column types wrong")
	}
	ins := stmts[1].(*InsertStmt)
	if ins.Table != "quote" || len(ins.Rows) != 2 || len(ins.Rows[0]) != 3 {
		t.Fatalf("insert = %+v", ins)
	}
}

func TestParseTypeNames(t *testing.T) {
	cases := map[string]storage.Type{
		"VARCHAR(10)": storage.TypeString, "char(1)": storage.TypeString,
		"TEXT": storage.TypeString, "DATE": storage.TypeDate,
		"INT": storage.TypeInt, "BIGINT": storage.TypeInt,
		"REAL": storage.TypeFloat, "DOUBLE": storage.TypeFloat,
		"DECIMAL(10)": storage.TypeFloat, "BOOLEAN": storage.TypeBool,
	}
	for name, want := range cases {
		st, err := Parse("CREATE TABLE t (c " + name + ")")
		if err != nil {
			t.Errorf("type %s: %v", name, err)
			continue
		}
		if got := st.(*CreateTableStmt).Columns[0].Type; got != want {
			t.Errorf("type %s parsed as %v, want %v", name, got, want)
		}
	}
	if _, err := Parse("CREATE TABLE t (c BLOB)"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"UPDATE t SET x = 1",
		"SELECT FROM t",
		"SELECT a FROM",
		"SELECT a FROM t AS X",               // pattern needs parens
		"SELECT a FROM t AS ()",              // empty pattern
		"SELECT a FROM t WHERE",              // missing expr
		"SELECT a FROM t WHERE a >",          // missing rhs
		"SELECT a, FROM t",                   // trailing comma
		"SELECT X. FROM t",                   // missing field
		"SELECT X.previous FROM t",           // nav without field
		"CREATE TABLE t",                     // missing columns
		"CREATE TABLE t (a)",                 // missing type
		"INSERT INTO t VALUES",               // missing rows
		"INSERT INTO t VALUES (1",            // unclosed row
		"SELECT a FROM t; SELECT b",          // Parse (not ParseScript) rejects two
		"SELECT a FROM t extra",              // trailing tokens
		"SELECT X.price.extra FROM t AS (X)", // field then more
	}
	for _, c := range cases {
		if _, err := Parse(c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("SELECT a\nFROM t WHERE @")
	if err == nil {
		t.Fatal("expected error")
	}
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if se.Line != 2 {
		t.Errorf("error line = %d, want 2", se.Line)
	}
	if !strings.Contains(err.Error(), "line 2:") {
		t.Errorf("error text %q lacks position", err)
	}
}

// TestRenderRoundTrip: parsing the rendered form of a statement yields an
// identical rendering (fixed point after one round).
func TestRenderRoundTrip(t *testing.T) {
	cases := []string{
		`SELECT X.name FROM quote CLUSTER BY name SEQUENCE BY date AS (X, Y, Z) WHERE (Y.price > (1.15 * X.price))`,
		`SELECT X.name, FIRST(X).date AS sdate FROM quote AS (*X, *Y) WHERE (X.price > X.previous.price)`,
		`CREATE TABLE quote (name VARCHAR, date DATE, price REAL)`,
		`INSERT INTO quote VALUES ('IBM', '1999-01-25', 81)`,
		`SELECT price FROM quote WHERE ((price > 10) AND (name = 'x''y'))`,
		`EXPLAIN SELECT X.name FROM quote AS (X, Y) WHERE (Y.price > X.price)`,
		`EXPLAIN ANALYZE SELECT X.name FROM quote AS (X, Y) WHERE (Y.price > X.price)`,
	}
	for _, src := range cases {
		st1, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		r1 := Render(st1)
		st2, err := Parse(r1)
		if err != nil {
			t.Fatalf("reparse %q: %v", r1, err)
		}
		r2 := Render(st2)
		if r1 != r2 {
			t.Errorf("render not a fixed point:\n%s\n%s", r1, r2)
		}
	}
}

func TestParseExplain(t *testing.T) {
	st, err := Parse(`EXPLAIN ANALYZE SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := st.(*ExplainStmt)
	if !ok || !ex.Analyze || ex.Sel == nil || ex.Sel.Table != "t" {
		t.Errorf("parsed %#v", st)
	}
	st, err = Parse(`EXPLAIN SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if ex := st.(*ExplainStmt); ex.Analyze {
		t.Error("plain EXPLAIN parsed as ANALYZE")
	}
	if _, err := Parse(`EXPLAIN CREATE TABLE t (a INT)`); err == nil {
		t.Error("EXPLAIN CREATE accepted")
	}
	if _, err := Parse(`EXPLAIN ANALYZE`); err == nil {
		t.Error("bare EXPLAIN ANALYZE accepted")
	}
}

func TestParseScriptTrailing(t *testing.T) {
	stmts, err := ParseScript("SELECT a FROM t")
	if err != nil || len(stmts) != 1 {
		t.Errorf("no-semicolon script: %v, %v", stmts, err)
	}
	stmts, err = ParseScript("SELECT a FROM t;")
	if err != nil || len(stmts) != 1 {
		t.Errorf("trailing semicolon: %v, %v", stmts, err)
	}
	if _, err := ParseScript("SELECT a FROM t SELECT b FROM t"); err == nil {
		t.Error("missing separator accepted")
	}
}

// TestLexKeywordsAnyCase: a keyword is recognised in any case, and its
// token text is the upper-case keyword; other words stay identifiers with
// their text as written. Lexing allocates only the token slice, however
// many tokens there are.
func TestLexKeywordsAnyCase(t *testing.T) {
	for src, want := range map[string]Token{
		"select":             {Kind: TokKeyword, Text: "SELECT"},
		"SeQuEnCe":           {Kind: TokKeyword, Text: "SEQUENCE"},
		"selects":            {Kind: TokIdent, Text: "selects"},
		"price":              {Kind: TokIdent, Text: "price"},
		"a_very_long_name_1": {Kind: TokIdent, Text: "a_very_long_name_1"},
	} {
		toks, err := Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		if got := toks[0]; got.Kind != want.Kind || got.Text != want.Text {
			t.Errorf("Lex(%q) = %v %q, want %v %q", src, got.Kind, got.Text, want.Kind, want.Text)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		_, _ = Lex("SELECT X.name FROM quote AS (X, Y) WHERE Y.price > 1.15*X.price AND Y.price<X.next.price")
	}); n > 2 {
		t.Errorf("Lex allocates %v times for a statement without string literals, want at most 2", n)
	}
}
