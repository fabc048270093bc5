package query

import (
	"strconv"
	"strings"
	"sync"

	"sqlts/internal/storage"
)

// Parse parses one SQL-TS statement.
func Parse(src string) (Stmt, error) { return ParseShared(src, nil) }

// ParseShared is Parse with a lookup of the statement's FROM … WHERE: a
// SELECT hands tail its tokens from FROM to the end of input, a final
// ';' left out, in the encoding of SelectStmt.PatternKey (tail is not
// called when the tokens have no key). When tail returns a statement,
// the result takes its FROM, CLUSTER BY, SEQUENCE BY, AS and WHERE
// clauses and its PatternKey instead of parsing them: the key being one
// of a statement that parsed, the tokens parse to those very clauses,
// and without an error. The returned clauses are shared, so nothing may
// change a parsed statement. A nil tail parses as Parse does.
func ParseShared(src string, tail func(key []byte) *SelectStmt) (Stmt, error) {
	p := newParser()
	defer p.release()
	if err := p.lex(src); err != nil {
		return nil, err
	}
	st, err := p.statement(tail)
	if err != nil {
		return nil, err
	}
	p.accept(TokOp, ";")
	if !p.at(TokEOF, "") {
		return nil, p.errf(p.cur().Line, p.cur().Col, "unexpected %s after statement", p.cur())
	}
	return st, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]Stmt, error) {
	p := newParser()
	defer p.release()
	if err := p.lex(src); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.at(TokEOF, "") {
		st, err := p.statement(nil)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(TokOp, ";") {
			break
		}
	}
	if !p.at(TokEOF, "") {
		return nil, p.errf(p.cur().Line, p.cur().Col, "unexpected %s after statement", p.cur())
	}
	return out, nil
}

// parser is a parse in progress. What it holds besides the parse's
// result — tokens, string literal texts, the pattern key buffer — is
// written and dropped by every parse, and nothing it returns points
// into it, so parsers are recycled, and a parse allocates for its tree.
type parser struct {
	src  string
	toks []tok
	lits []string // the texts of string literals with an escaped quote
	pos  int

	// key holds the pattern key of toks[from:keyEnd], from a SELECT's
	// FROM, once one was written (see patternKey); keyEnd is 0 when it
	// holds none.
	key    []byte
	keyEnd int
}

var parsers = sync.Pool{New: func() any { return new(parser) }}

// A recycled parser keeps a token slice of at most maxKeptTokens tokens
// and a key buffer of at most maxKeptKey bytes.
const (
	maxKeptTokens = 1 << 14
	maxKeptKey    = 1 << 16
)

func newParser() *parser { return parsers.Get().(*parser) }

// release recycles p, dropping what it points at.
func (p *parser) release() {
	toks, lits, key := p.toks[:0], p.lits[:0], p.key[:0]
	clear(p.lits)
	if cap(toks) > maxKeptTokens {
		toks = nil
	}
	if cap(key) > maxKeptKey {
		key = nil
	}
	*p = parser{toks: toks, lits: lits, key: key}
	parsers.Put(p)
}

// writeKey writes the key of toks[from:end] into p.key; false when the
// tokens have none (see PatternKey).
func (p *parser) writeKey(from, end int) bool {
	b := p.key[:0]
	for i := from; i < end; i++ {
		t := &p.toks[i]
		text := p.text(t)
		if t.kind == TokString && strings.IndexByte(text, 0) >= 0 {
			p.keyEnd = 0
			return false
		}
		b = append(b, byte(t.kind))
		b = append(b, text...)
		b = append(b, 0)
	}
	p.key, p.keyEnd = b, end
	return true
}

// sharedTail offers the statement's tokens from FROM, at p.pos, to the
// end of input to tail (see ParseShared). On a hit it moves p.pos to the
// end and returns the statement whose clauses the tokens spell.
func (p *parser) sharedTail(tail func(key []byte) *SelectStmt) *SelectStmt {
	end := len(p.toks) - 1 // the EOF token
	if last := &p.toks[end-1]; last.kind == TokOp && p.text(last) == ";" {
		end--
	}
	if !p.writeKey(p.pos, end) {
		return nil
	}
	sh := tail(p.key)
	if sh != nil {
		p.pos = end
	}
	return sh
}

// patternKey is the PatternKey of the tokens from toks[from] to p.pos:
// the key sharedTail wrote when it covers them, else a new one.
func (p *parser) patternKey(from int) string {
	if p.keyEnd != p.pos && !p.writeKey(from, p.pos) {
		return ""
	}
	return string(p.key)
}

func (p *parser) cur() Token  { return p.token(p.pos) }
func (p *parser) next() Token { p.pos++; return p.token(p.pos - 1) }

func (p *parser) at(kind TokenKind, text string) bool {
	t := &p.toks[p.pos]
	return t.kind == kind && (text == "" || p.text(t) == text)
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	t := p.cur()
	want := text
	if want == "" {
		switch kind {
		case TokIdent:
			want = "identifier"
		case TokNumber:
			want = "number"
		case TokString:
			want = "string"
		default:
			want = "token"
		}
		return t, p.errf(t.Line, t.Col, "expected %s, found %s", want, t)
	}
	return t, p.errf(t.Line, t.Col, "expected %q, found %s", want, t)
}

// statement parses one statement; tail is ParseShared's, nil elsewhere.
func (p *parser) statement(tail func(key []byte) *SelectStmt) (Stmt, error) {
	switch {
	case p.at(TokKeyword, "SELECT"):
		return p.selectStmt(tail)
	case p.at(TokKeyword, "EXPLAIN"):
		return p.explainStmt(tail)
	case p.at(TokKeyword, "CREATE"):
		return p.createStmt()
	case p.at(TokKeyword, "INSERT"):
		return p.insertStmt()
	default:
		t := p.cur()
		return nil, p.errf(t.Line, t.Col, "expected SELECT, EXPLAIN, CREATE or INSERT, found %s", t)
	}
}

func (p *parser) selectStmt(tail func(key []byte) *SelectStmt) (*SelectStmt, error) {
	if _, err := p.expect(TokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
	for {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		item := SelectItem{Expr: e}
		if p.accept(TokKeyword, "AS") {
			id, err := p.expect(TokIdent, "")
			if err != nil {
				return nil, err
			}
			item.Alias = id.Text
		}
		st.Items = append(st.Items, item)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	from := p.pos
	if tail != nil && p.at(TokKeyword, "FROM") {
		if sh := p.sharedTail(tail); sh != nil {
			st.Table, st.ClusterBy, st.SequenceBy = sh.Table, sh.ClusterBy, sh.SequenceBy
			st.Pattern, st.Where, st.PatternKey = sh.Pattern, sh.Where, sh.PatternKey
			return st, nil
		}
	}
	if _, err := p.expect(TokKeyword, "FROM"); err != nil {
		return nil, err
	}
	tbl, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	st.Table = tbl.Text

	for {
		switch {
		case p.accept(TokKeyword, "CLUSTER"):
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, err
			}
			st.ClusterBy = cols
		case p.accept(TokKeyword, "SEQUENCE"):
			if _, err := p.expect(TokKeyword, "BY"); err != nil {
				return nil, err
			}
			cols, err := p.identList()
			if err != nil {
				return nil, err
			}
			st.SequenceBy = cols
		case p.accept(TokKeyword, "AS"):
			vars, err := p.patternVars()
			if err != nil {
				return nil, err
			}
			st.Pattern = vars
		default:
			goto clauses
		}
	}
clauses:
	if p.accept(TokKeyword, "WHERE") {
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		st.Where = e
	}
	st.PatternKey = p.patternKey(from)
	return st, nil
}

// explainStmt parses EXPLAIN [ANALYZE] select.
func (p *parser) explainStmt(tail func(key []byte) *SelectStmt) (*ExplainStmt, error) {
	if _, err := p.expect(TokKeyword, "EXPLAIN"); err != nil {
		return nil, err
	}
	st := &ExplainStmt{Analyze: p.accept(TokKeyword, "ANALYZE")}
	if !p.at(TokKeyword, "SELECT") {
		t := p.cur()
		return nil, p.errf(t.Line, t.Col, "EXPLAIN expects a SELECT statement, found %s", t)
	}
	sel, err := p.selectStmt(tail)
	if err != nil {
		return nil, err
	}
	st.Sel = sel
	return st, nil
}

func (p *parser) identList() ([]string, error) {
	var out []string
	for {
		id, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		out = append(out, id.Text)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return out, nil
}

func (p *parser) patternVars() ([]PatternVar, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	var out []PatternVar
	for {
		star := p.accept(TokOp, "*")
		id, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		out = append(out, PatternVar{Name: id.Text, Star: star})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return out, nil
}

func (p *parser) createStmt() (*CreateTableStmt, error) {
	if _, err := p.expect(TokKeyword, "CREATE"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "TABLE"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	st := &CreateTableStmt{Name: name.Text}
	for {
		col, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		typ, err := p.typeName()
		if err != nil {
			return nil, err
		}
		st.Columns = append(st.Columns, ColumnDef{Name: col.Text, Type: typ})
		if !p.accept(TokOp, ",") {
			break
		}
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

// typeName parses a SQL type, tolerating a parenthesized length argument.
func (p *parser) typeName() (storage.Type, error) {
	t := p.cur()
	if t.Kind != TokIdent && t.Kind != TokKeyword {
		return storage.TypeNull, p.errf(t.Line, t.Col, "expected type name, found %s", t)
	}
	p.pos++
	name := strings.ToUpper(t.Text)
	if p.accept(TokOp, "(") {
		if _, err := p.expect(TokNumber, ""); err != nil {
			return storage.TypeNull, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return storage.TypeNull, err
		}
	}
	switch name {
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return storage.TypeString, nil
	case "DATE":
		return storage.TypeDate, nil
	case "INTEGER", "INT", "BIGINT", "SMALLINT":
		return storage.TypeInt, nil
	case "REAL", "FLOAT", "DOUBLE", "NUMERIC", "DECIMAL":
		return storage.TypeFloat, nil
	case "BOOLEAN", "BOOL":
		return storage.TypeBool, nil
	default:
		return storage.TypeNull, p.errf(t.Line, t.Col, "unknown type %q", t.Text)
	}
}

func (p *parser) insertStmt() (*InsertStmt, error) {
	if _, err := p.expect(TokKeyword, "INSERT"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "INTO"); err != nil {
		return nil, err
	}
	name, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: name.Text}
	for {
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(TokOp, ",") {
				break
			}
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(TokOp, ",") {
			break
		}
	}
	return st, nil
}

// --- expressions -------------------------------------------------------------

func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(TokKeyword, "AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.accept(TokKeyword, "NOT") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", X: x}, nil
	}
	return p.cmpExpr()
}

// cmpOp returns the comparison operator t spells, "!=" as "<>", or "".
func cmpOp(t Token) string {
	if t.Kind != TokOp {
		return ""
	}
	switch t.Text {
	case "=", "<>", "<", "<=", ">", ">=":
		return t.Text
	case "!=":
		return "<>"
	}
	return ""
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	if op := cmpOp(p.cur()); op != "" {
		p.pos++
		r, err := p.addExpr()
		if err != nil {
			return nil, err
		}
		return &BinaryExpr{Op: op, L: l, R: r}, nil
	}
	return l, nil
}

func (p *parser) addExpr() (Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "+") || p.at(TokOp, "-") {
		op := p.next().Text
		r, err := p.mulExpr()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) mulExpr() (Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for p.at(TokOp, "*") || p.at(TokOp, "/") {
		op := p.next().Text
		r, err := p.unary()
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op, L: l, R: r}
	}
	return l, nil
}

func (p *parser) unary() (Expr, error) {
	if p.accept(TokOp, "-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", X: x}, nil
	}
	return p.primary()
}

func (p *parser) primary() (Expr, error) {
	t := p.cur()
	switch {
	case t.Kind == TokNumber:
		p.pos++
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			return nil, p.errf(t.Line, t.Col, "bad number %q: %v", t.Text, err)
		}
		return &NumberLit{Text: t.Text, Value: v, IsInt: !strings.ContainsAny(t.Text, ".eE")}, nil
	case t.Kind == TokString:
		p.pos++
		return &StringLit{Value: t.Text}, nil
	case t.Kind == TokKeyword && (t.Text == "TRUE" || t.Text == "FALSE"):
		p.pos++
		return &BoolLit{Value: t.Text == "TRUE"}, nil
	case t.Kind == TokKeyword && t.Text == "NULL":
		p.pos++
		return &NullLit{}, nil
	case t.Kind == TokKeyword && (t.Text == "FIRST" || t.Text == "LAST"):
		p.pos++
		fn := SpanFirst
		if t.Text == "LAST" {
			fn = SpanLast
		}
		if _, err := p.expect(TokOp, "("); err != nil {
			return nil, err
		}
		id, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return p.fieldTail(&FieldRef{Var: id.Text, Fn: fn}, t)
	case t.Kind == TokIdent:
		p.pos++
		if p.at(TokOp, "(") && isAggName(t.Text) {
			return p.aggCall(t)
		}
		if !p.at(TokOp, ".") && !p.at(TokOp, "->") {
			// Bare column reference (plain SQL form).
			return &FieldRef{Field: t.Text}, nil
		}
		return p.fieldTail(&FieldRef{Var: t.Text}, t)
	case t.Kind == TokOp && t.Text == "(":
		p.pos++
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokOp, ")"); err != nil {
			return nil, err
		}
		return e, nil
	default:
		return nil, p.errf(t.Line, t.Col, "unexpected %s in expression", t)
	}
}

// isAggName reports whether s names an aggregate, in any case.
func isAggName(s string) bool {
	for _, fn := range [...]string{"AVG", "MIN", "MAX", "SUM", "COUNT"} {
		if strings.EqualFold(s, fn) {
			return true
		}
	}
	return false
}

// aggCall parses AVG(X.price) / COUNT(X) after the function name.
func (p *parser) aggCall(name Token) (Expr, error) {
	if _, err := p.expect(TokOp, "("); err != nil {
		return nil, err
	}
	v, err := p.expect(TokIdent, "")
	if err != nil {
		return nil, err
	}
	agg := &AggExpr{Fn: strings.ToUpper(name.Text), Var: v.Text}
	if p.accept(TokOp, ".") || p.accept(TokOp, "->") {
		f, err := p.expect(TokIdent, "")
		if err != nil {
			return nil, err
		}
		agg.Field = f.Text
	}
	if _, err := p.expect(TokOp, ")"); err != nil {
		return nil, err
	}
	if agg.Fn != "COUNT" && agg.Field == "" {
		return nil, p.errf(name.Line, name.Col, "%s needs a field argument, e.g. %s(%s.price)", agg.Fn, agg.Fn, agg.Var)
	}
	return agg, nil
}

// fieldTail parses the .previous/.next chain and the final field name.
// Both '.' and the SQL3 arrow '->' separate segments.
func (p *parser) fieldTail(ref *FieldRef, at Token) (Expr, error) {
	for {
		if !p.accept(TokOp, ".") && !p.accept(TokOp, "->") {
			break
		}
		t := p.cur()
		switch {
		case t.Kind == TokKeyword && t.Text == "PREVIOUS":
			p.pos++
			ref.Navs = append(ref.Navs, NavPrevious)
		case t.Kind == TokKeyword && t.Text == "NEXT":
			p.pos++
			ref.Navs = append(ref.Navs, NavNext)
		case t.Kind == TokIdent:
			p.pos++
			if ref.Field != "" {
				return nil, p.errf(t.Line, t.Col, "unexpected %s after field %q", t, ref.Field)
			}
			ref.Field = t.Text
		default:
			return nil, p.errf(t.Line, t.Col, "expected field name or previous/next, found %s", t)
		}
		if ref.Field != "" {
			break
		}
	}
	if ref.Field == "" {
		return nil, p.errf(at.Line, at.Col, "reference %q is missing a field name", ref.Var)
	}
	return ref, nil
}
