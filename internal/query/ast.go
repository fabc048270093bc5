package query

import (
	"fmt"
	"strings"

	"sqlts/internal/storage"
)

// Stmt is any parsed SQL-TS statement.
type Stmt interface{ stmt() }

// SelectStmt is the SQL-TS sequence query form:
//
//	SELECT items FROM table
//	  [CLUSTER BY cols] [SEQUENCE BY cols]
//	  AS (X, *Y, ...)
//	  [WHERE cond]
//
// Plain SQL selection (no AS pattern) is also represented here with an
// empty Pattern.
type SelectStmt struct {
	Items      []SelectItem
	Table      string
	ClusterBy  []string
	SequenceBy []string
	Pattern    []PatternVar
	Where      Expr // nil when absent

	// PatternKey is the statement's tokens from FROM to its end, each
	// written as kind byte, text and NUL. Equal keys parse to equal FROM,
	// CLUSTER BY, SEQUENCE BY, AS and WHERE clauses, whatever the SELECT
	// list, so two statements with equal keys over one schema analyse to
	// the same pattern. It is "" when a string literal holds a NUL byte,
	// which would make the encoding ambiguous: such a statement shares
	// nothing. A statement whose key ParseShared's lookup found holds the
	// found statement's clauses and key string, unparsed.
	PatternKey string
}

// SelectItem is one output expression with an optional alias.
type SelectItem struct {
	Expr  Expr
	Alias string
}

// PatternVar is one AS-clause tuple variable; Star marks the *X form.
type PatternVar struct {
	Name string
	Star bool
}

// ExplainStmt is EXPLAIN [ANALYZE] select. Plain EXPLAIN renders the
// compiled plan without executing; EXPLAIN ANALYZE executes the query
// and annotates the plan with per-phase timings and runtime counters.
type ExplainStmt struct {
	Analyze bool
	Sel     *SelectStmt
}

// CreateTableStmt is CREATE TABLE name (col type, ...).
type CreateTableStmt struct {
	Name    string
	Columns []ColumnDef
}

// ColumnDef is one column declaration.
type ColumnDef struct {
	Name string
	Type storage.Type
}

// InsertStmt is INSERT INTO name VALUES (lit, ...), (lit, ...).
type InsertStmt struct {
	Table string
	Rows  [][]Expr
}

func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}

// Expr is an expression node.
type Expr interface {
	fmt.Stringer
	expr()
}

// Nav is one navigation step on a tuple variable.
type Nav uint8

// Navigation steps.
const (
	NavPrevious Nav = iota
	NavNext
)

func (n Nav) String() string {
	if n == NavNext {
		return "next"
	}
	return "previous"
}

// SpanFn selects a tuple from a star element's span.
type SpanFn uint8

// Span accessors: none, FIRST(X), LAST(X).
const (
	SpanNone SpanFn = iota
	SpanFirst
	SpanLast
)

// FieldRef is a navigated field reference: [FIRST|LAST](Var).nav*.Field,
// e.g. X.price, Y.previous.price, FIRST(X).date, X.next.price. The SQL3
// arrow form X.previous->date parses to the same node.
type FieldRef struct {
	Var   string
	Fn    SpanFn
	Navs  []Nav
	Field string

	// elem and col are Var's pattern element and Field's schema column,
	// resolved once by Analyze for the references of a pattern query so
	// that evaluating one over a match looks nothing up by name.
	elem, col int
}

// AggExpr is a span aggregate over a pattern variable in the SELECT
// list: AVG(Y.price), MIN/MAX/SUM(Y.price), COUNT(Y). Aggregates range
// over the tuples matched by the variable (one tuple for plain
// variables, the whole span for star variables) and ignore NULLs.
type AggExpr struct {
	Fn    string // AVG, MIN, MAX, SUM, COUNT (upper-cased)
	Var   string
	Field string // empty for COUNT(X)

	// elem and col are resolved by Analyze like a FieldRef's; col is unset
	// for COUNT(X).
	elem, col int
}

func (a *AggExpr) expr() {}

func (a *AggExpr) String() string {
	if a.Field == "" {
		return fmt.Sprintf("%s(%s)", a.Fn, a.Var)
	}
	return fmt.Sprintf("%s(%s.%s)", a.Fn, a.Var, a.Field)
}

// NumberLit is a numeric literal.
type NumberLit struct {
	Text  string
	Value float64
	IsInt bool
}

// StringLit is a string literal.
type StringLit struct{ Value string }

// BoolLit is TRUE or FALSE.
type BoolLit struct{ Value bool }

// NullLit is NULL.
type NullLit struct{}

// BinaryExpr is a binary operation: comparisons (= <> < <= > >=),
// arithmetic (+ - * /), and the logical connectives AND / OR.
type BinaryExpr struct {
	Op   string
	L, R Expr
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string
	X  Expr
}

func (*FieldRef) expr()   {}
func (*NumberLit) expr()  {}
func (*StringLit) expr()  {}
func (*BoolLit) expr()    {}
func (*NullLit) expr()    {}
func (*BinaryExpr) expr() {}
func (*UnaryExpr) expr()  {}

func (f *FieldRef) String() string {
	if f.Var == "" {
		return f.Field // bare column reference
	}
	var b strings.Builder
	switch f.Fn {
	case SpanFirst:
		fmt.Fprintf(&b, "FIRST(%s)", f.Var)
	case SpanLast:
		fmt.Fprintf(&b, "LAST(%s)", f.Var)
	default:
		b.WriteString(f.Var)
	}
	for _, n := range f.Navs {
		b.WriteByte('.')
		b.WriteString(n.String())
	}
	b.WriteByte('.')
	b.WriteString(f.Field)
	return b.String()
}

func (n *NumberLit) String() string { return n.Text }
func (s *StringLit) String() string { return "'" + strings.ReplaceAll(s.Value, "'", "''") + "'" }
func (b *BoolLit) String() string {
	if b.Value {
		return "TRUE"
	}
	return "FALSE"
}
func (*NullLit) String() string { return "NULL" }

func (e *BinaryExpr) String() string {
	return fmt.Sprintf("(%s %s %s)", e.L, e.Op, e.R)
}

func (e *UnaryExpr) String() string {
	if e.Op == "NOT" {
		return fmt.Sprintf("(NOT %s)", e.X)
	}
	return fmt.Sprintf("(%s%s)", e.Op, e.X)
}

// splitAnd flattens a conjunction into its conjuncts.
func splitAnd(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "AND" {
		return append(splitAnd(b.L), splitAnd(b.R)...)
	}
	return []Expr{e}
}

// splitOr flattens a disjunction into its disjuncts.
func splitOr(e Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "OR" {
		return append(splitOr(b.L), splitOr(b.R)...)
	}
	return []Expr{e}
}

// walkRefs visits every FieldRef in an expression (aggregate arguments
// are not FieldRefs; see walkAggs).
func walkRefs(e Expr, visit func(*FieldRef)) {
	switch x := e.(type) {
	case *FieldRef:
		visit(x)
	case *BinaryExpr:
		walkRefs(x.L, visit)
		walkRefs(x.R, visit)
	case *UnaryExpr:
		walkRefs(x.X, visit)
	}
}

// walkAggs visits every AggExpr in an expression.
func walkAggs(e Expr, visit func(*AggExpr)) {
	switch x := e.(type) {
	case *AggExpr:
		visit(x)
	case *BinaryExpr:
		walkAggs(x.L, visit)
		walkAggs(x.R, visit)
	case *UnaryExpr:
		walkAggs(x.X, visit)
	}
}
