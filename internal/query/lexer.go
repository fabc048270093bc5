package query

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// Lex tokenizes a SQL-TS statement. Comments run from "--" to end of
// line. String literals use single quotes with ” as the escape.
func Lex(src string) ([]Token, error) {
	// A token with the blanks around it takes three bytes or more of a
	// typical statement, so this is the one allocation of most statements
	// without string literals.
	toks := make([]Token, 0, len(src)/3+1)
	line, col := 1, 1
	i := 0
	n := len(src)
	advance := func(k int) {
		for ; k > 0; k-- {
			if src[i] == '\n' {
				line++
				col = 1
			} else {
				col++
			}
			i++
		}
	}
	for i < n {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			advance(1)
		case c == '-' && i+1 < n && src[i+1] == '-':
			for i < n && src[i] != '\n' {
				advance(1)
			}
		case isIdentStart(rune(c)):
			start := i
			startLine, startCol := line, col
			for i < n && isIdentPart(rune(src[i])) {
				advance(1)
			}
			text := src[start:i]
			if kw, ok := keyword(text); ok {
				toks = append(toks, Token{Kind: TokKeyword, Text: kw, Line: startLine, Col: startCol})
			} else {
				toks = append(toks, Token{Kind: TokIdent, Text: text, Line: startLine, Col: startCol})
			}
		case c >= '0' && c <= '9' || (c == '.' && i+1 < n && src[i+1] >= '0' && src[i+1] <= '9'):
			start := i
			startLine, startCol := line, col
			seenDot := false
			for i < n {
				d := src[i]
				if d >= '0' && d <= '9' {
					advance(1)
					continue
				}
				if d == '.' && !seenDot {
					seenDot = true
					advance(1)
					continue
				}
				if (d == 'e' || d == 'E') && i+1 < n &&
					(src[i+1] >= '0' && src[i+1] <= '9' || src[i+1] == '+' || src[i+1] == '-') {
					advance(2)
					for i < n && src[i] >= '0' && src[i] <= '9' {
						advance(1)
					}
					break
				}
				break
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:i], Line: startLine, Col: startCol})
		case c == '\'':
			startLine, startCol := line, col
			advance(1)
			var b strings.Builder
			closed := false
			for i < n {
				if src[i] == '\'' {
					if i+1 < n && src[i+1] == '\'' {
						b.WriteByte('\'')
						advance(2)
						continue
					}
					advance(1)
					closed = true
					break
				}
				b.WriteByte(src[i])
				advance(1)
			}
			if !closed {
				return nil, errf(startLine, startCol, "unterminated string literal")
			}
			toks = append(toks, Token{Kind: TokString, Text: b.String(), Line: startLine, Col: startCol})
		default:
			startLine, startCol := line, col
			two := ""
			if i+1 < n {
				two = src[i : i+2]
			}
			switch two {
			case "<=", ">=", "<>", "!=", "->":
				advance(2)
				toks = append(toks, Token{Kind: TokOp, Text: two, Line: startLine, Col: startCol})
				continue
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';':
				advance(1)
				toks = append(toks, Token{Kind: TokOp, Text: src[i-1 : i], Line: startLine, Col: startCol})
			default:
				return nil, errf(line, col, "unexpected character %q", string(c))
			}
		}
	}
	toks = append(toks, Token{Kind: TokEOF, Line: line, Col: col})
	return toks, nil
}

// keyword returns the upper-case keyword that text spells in any case. A
// short ASCII word, which every keyword is, is looked up without
// allocating; a longer or non-ASCII word goes through strings.ToUpper,
// whose Unicode case mapping decides.
func keyword(text string) (string, bool) {
	var buf [16]byte
	if len(text) <= len(buf) {
		ascii := true
		for i := 0; i < len(text) && ascii; i++ {
			c := text[i]
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			buf[i] = c
			ascii = c < utf8.RuneSelf
		}
		if ascii {
			kw, ok := keywords[string(buf[:len(text)])]
			return kw, ok
		}
	}
	kw, ok := keywords[strings.ToUpper(text)]
	return kw, ok
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
