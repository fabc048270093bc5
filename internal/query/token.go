// Package query implements the SQL-TS front end: lexer, abstract syntax
// tree, recursive-descent parser, semantic analyzer and expression
// evaluator. SQL-TS (§2 of the paper) is SQL with three FROM-clause
// additions — CLUSTER BY, SEQUENCE BY and a pattern of tuple variables in
// the AS clause, where *X denotes a one-or-more repetition — plus
// previous/next tuple navigation and the FIRST()/LAST() span accessors.
package query

import "fmt"

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokNumber
	TokString // 'single quoted'
	TokOp     // punctuation and operators
)

// Token is one lexical token with its source position: 1-based line, and
// column in characters.
type Token struct {
	Kind TokenKind
	Text string // keywords are upper-cased; identifiers keep original case
	Line int
	Col  int
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("'%s'", t.Text)
	default:
		return fmt.Sprintf("%q", t.Text)
	}
}

// keywords recognized by the lexer, in any case; a keyword token's text
// is its upper-case spelling here. Each is an ASCII word of 2 to 8 letters
// (see keyword).
var keywords = []string{
	"SELECT", "FROM", "WHERE", "AS",
	"CLUSTER", "SEQUENCE", "BY",
	"AND", "OR", "NOT",
	"CREATE", "TABLE", "INSERT", "INTO",
	"VALUES", "FIRST", "LAST",
	"EXPLAIN", "ANALYZE",
	"PREVIOUS", "NEXT",
	"TRUE", "FALSE", "NULL",
}

// SyntaxError is a parse or lex error with position information: 1-based
// line, and column in characters.
type SyntaxError struct {
	Line, Col int
	Msg       string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql-ts: line %d:%d: %s", e.Line, e.Col, e.Msg)
}

// errf is the SyntaxError at byte column col of line in the statement p
// lexes, reported at its character column.
func (p *parser) errf(line, col int, format string, args ...any) error {
	c := columns{src: p.src}
	return &SyntaxError{Line: line, Col: c.at(line, col), Msg: fmt.Sprintf(format, args...)}
}
