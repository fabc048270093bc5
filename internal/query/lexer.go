package query

import (
	"fmt"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Byte classes of the lexer's ASCII fast path. A byte of 0x80 or more
// begins a multi-byte UTF-8 sequence and is decoded as a rune instead.
const (
	clSpace  uint8 = 1 << iota // ' ', '\t', '\r', '\n'
	clLetter                   // A–Z, a–z and '_': starts and continues a word
	clDigit                    // 0–9: starts a number, continues a word
)

var byteClass = func() (t [utf8.RuneSelf]uint8) {
	for _, c := range " \t\r\n" {
		t[c] = clSpace
	}
	for c := 'a'; c <= 'z'; c++ {
		t[c], t[c-'a'+'A'] = clLetter, clLetter
	}
	t['_'] = clLetter
	for c := '0'; c <= '9'; c++ {
		t[c] = clDigit
	}
	return t
}()

// Lex tokenizes a SQL-TS statement. Comments run from "--" to end of
// line. String literals use single quotes with ” as the escape. A word
// is a letter or '_' followed by letters, digits and '_', Unicode ones
// included. The token slice is the one allocation of a statement whose
// string literals hold no escaped quote.
func Lex(src string) ([]Token, error) {
	p := newParser()
	defer p.release()
	if err := p.lex(src); err != nil {
		return nil, err
	}
	out := make([]Token, len(p.toks))
	c := columns{src: src}
	for i := range out {
		out[i] = p.token(i)
		out[i].Col = c.at(out[i].Line, out[i].Col)
	}
	return out, nil
}

// tok is a token as the lexer writes it and the parser reads it. It holds
// no pointer, its text being named by offsets (see parser.text), so a
// token slice is written without write barriers and never scanned by the
// collector.
type tok struct {
	kind TokenKind
	// esc marks a string literal with an escaped quote, whose text is
	// lits[off]. Any other text is src[off:end], a keyword's keywords[off].
	esc       bool
	off, end  int32
	line, col int32
}

// text is t's text, as Token.Text reads.
func (p *parser) text(t *tok) string {
	switch {
	case t.kind == TokKeyword:
		return keywords[t.off]
	case t.esc:
		return p.lits[t.off]
	}
	return p.src[t.off:t.end]
}

// token is toks[i] as a Token.
func (p *parser) token(i int) Token {
	t := &p.toks[i]
	return Token{Kind: t.kind, Text: p.text(t), Line: int(t.line), Col: int(t.col)}
}

// lex sets p to src's tokens, reusing p's slices.
func (p *parser) lex(src string) error {
	if len(src) > math.MaxInt32 {
		return p.errf(1, 1, "statement of %d bytes is too long", len(src))
	}
	// A token with the blanks around it takes three bytes or more of a
	// typical statement.
	toks := p.toks[:0]
	if want := len(src)/3 + 1; cap(toks) < want {
		toks = make([]tok, 0, want)
	}
	p.src, p.lits = src, p.lits[:0]
	// The column is a byte offset from the start of the line (see columns).
	line, lineStart := 1, 0
	i, n := 0, len(src)
	for i < n {
		c := src[i]
		start := i
		var cl uint8
		if c < utf8.RuneSelf {
			cl = byteClass[c]
		}
		switch {
		case cl == clSpace:
			i++
			if c == '\n' {
				line, lineStart = line+1, i
			}
		case cl == clLetter || c >= utf8.RuneSelf:
			if c >= utf8.RuneSelf {
				r, size := utf8.DecodeRuneInString(src[i:])
				if !isIdentStart(r) {
					return p.badChar(line, i-lineStart+1, r, size, src[i])
				}
				i += size
			} else {
				i++
			}
			i = wordEnd(src, i)
			toks = push(toks, TokIdent, start, i, line, lineStart)
			if k := keyword(src[start:i]); k >= 0 {
				t := &toks[len(toks)-1]
				t.kind, t.off = TokKeyword, int32(k)
			}
		case cl == clDigit || c == '.' && i+1 < n && isDigit(src[i+1]):
			i = numberEnd(src, i)
			toks = push(toks, TokNumber, start, i, line, lineStart)
		case c == '-' && i+1 < n && src[i+1] == '-':
			if k := strings.IndexByte(src[i:], '\n'); k >= 0 {
				i += k
			} else {
				i = n
			}
		case c == '\'':
			toks = push(toks, TokString, start, 0, line, lineStart)
			t := &toks[len(toks)-1]
			var escaped []byte // the literal up to its last '', once it has one
			i++
			t.off = int32(i)
			for {
				k := strings.IndexByte(src[i:], '\'')
				if k < 0 {
					return p.errf(int(t.line), int(t.col), "unterminated string literal")
				}
				if nl := strings.LastIndexByte(src[i:i+k], '\n'); nl >= 0 {
					line, lineStart = line+strings.Count(src[i:i+k], "\n"), i+nl+1
				}
				i += k
				if i+1 < n && src[i+1] == '\'' {
					escaped = append(escaped, src[t.off:i+1]...)
					i += 2
					t.off = int32(i)
					continue
				}
				break
			}
			t.end = int32(i)
			if escaped != nil {
				p.lits = append(p.lits, string(append(escaped, src[t.off:i]...)))
				t.esc, t.off = true, int32(len(p.lits)-1)
			}
			i++
		default:
			if i+1 < n {
				switch src[i : i+2] {
				case "<=", ">=", "<>", "!=", "->":
					i += 2
					toks = push(toks, TokOp, start, i, line, lineStart)
					continue
				}
			}
			switch c {
			case '=', '<', '>', '+', '-', '*', '/', '(', ')', ',', '.', ';':
				i++
				toks = push(toks, TokOp, start, i, line, lineStart)
				continue
			}
			return p.errf(line, start-lineStart+1, "unexpected character %q", string(c))
		}
	}
	p.toks = push(toks, TokEOF, n, n, line, lineStart)
	return nil
}

// columns converts positions in a statement from the byte columns the
// lexer keeps to the character columns a SyntaxError and Lex's tokens
// report. It walks forward from the statement's start, so a run of
// positions converted in source order costs one pass over the text.
type columns struct {
	src          string
	lines, start int // the lines passed, and the offset the next starts at
	bytes, chars int // what of that line has been converted
}

// at returns the character column of byte column col of line.
func (c *columns) at(line, col int) int {
	for ; c.lines+1 < line; c.lines++ {
		c.start += strings.IndexByte(c.src[c.start:], '\n') + 1
		c.bytes, c.chars = 0, 0
	}
	c.chars += utf8.RuneCountInString(c.src[c.start+c.bytes : c.start+col-1])
	c.bytes = col - 1
	return c.chars + 1
}

// push appends the token of kind at src[start:end], start on the line
// starting at lineStart.
func push(toks []tok, kind TokenKind, start, end, line, lineStart int) []tok {
	return append(toks, tok{kind: kind, off: int32(start), end: int32(end), line: int32(line), col: int32(start - lineStart + 1)})
}

// wordEnd returns the end of the word whose rest starts at src[i].
func wordEnd(src string, i int) int {
	for i < len(src) {
		c := src[i]
		if c < utf8.RuneSelf {
			if byteClass[c]&(clLetter|clDigit) == 0 {
				return i
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(src[i:])
		if !isIdentPart(r) {
			return i
		}
		i += size
	}
	return i
}

// numberEnd returns the end of the number starting at src[i]: digits
// with at most one '.', then an optional exponent.
func numberEnd(src string, i int) int {
	n := len(src)
	seenDot := false
	for i < n {
		d := src[i]
		switch {
		case isDigit(d):
			i++
		case d == '.' && !seenDot:
			seenDot = true
			i++
		case (d == 'e' || d == 'E') && i+1 < n && (isDigit(src[i+1]) || src[i+1] == '+' || src[i+1] == '-'):
			for i += 2; i < n && isDigit(src[i]); i++ {
			}
			return i
		default:
			return i
		}
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// badChar is the error for a character no token starts with: the rune
// as written, or the byte when it does not begin valid UTF-8.
func (p *parser) badChar(line, col int, r rune, size int, b byte) error {
	if r == utf8.RuneError && size == 1 {
		return p.errf(line, col, "invalid UTF-8 byte 0x%02x", b)
	}
	return p.errf(line, col, "unexpected character %q", string(r))
}

// keywordSlots holds at each keyword's slot (see keywordSlot) its index
// in keywords plus one; 0 is an empty slot.
var keywordSlots = func() (t [64]uint8) {
	for k, kw := range keywords {
		h := keywordSlot(kw)
		if t[h] != 0 {
			panic(fmt.Sprintf("query: keywords %s and %s share a slot", keywords[t[h]-1], kw))
		}
		t[h] = uint8(k + 1)
	}
	return t
}()

// keywordSlot hashes a word by its length and its first and last bytes,
// the letters case-folded; the constants keep the keywords apart.
func keywordSlot(w string) int {
	return (len(w)*38 + int(w[0]|0x20) + int(w[len(w)-1]|0x20)) & 63
}

// keyword returns the index in keywords of the keyword that text spells
// in any case, or -1. Keywords are ASCII words: text can only be the
// keyword in its slot, and a byte matches a keyword's letter when it is
// that letter in either case.
func keyword(text string) int {
	if len(text) < 2 || len(text) > 8 {
		return -1
	}
	k := int(keywordSlots[keywordSlot(text)]) - 1
	if k < 0 || len(keywords[k]) != len(text) {
		return -1
	}
	kw := keywords[k]
	for i := 0; i < len(text); i++ {
		if text[i]&^0x20 != kw[i] {
			return -1
		}
	}
	return k
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}
