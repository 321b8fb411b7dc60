// Package sqlparser implements a lexer, AST and recursive-descent parser for
// the relational-algebra-equivalent SQL fragment accepted by TINTIN:
// SELECT with selection/projection/join, EXISTS / NOT EXISTS, IN / NOT IN,
// UNION, plus the DDL and DML needed to drive the engine (CREATE TABLE /
// VIEW / ASSERTION, INSERT, DELETE). Aggregates and arithmetic functions are
// rejected, matching the fragment supported by the paper.
//
// The parser pulls tokens from a Lexer as it goes and looks at most three
// tokens ahead; a lexing error anywhere in the input still takes precedence
// over a parse error. An INSERT's all-literal VALUES tuple is parsed straight
// into the row the engine stores (Tuple.Values), with no expression node per
// value, and FormatStatement prints both tuple forms alike.
package sqlparser

import (
	"fmt"
	"strings"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokEOF TokenKind = iota
	TokIdent
	TokKeyword
	TokInt
	TokFloat
	TokString
	TokSymbol // punctuation and operators: ( ) , . ; = <> < <= > >= + - * /
)

// Token is a single lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string // keywords upper-cased; identifiers folded to lower case
	Orig string // original spelling
	Pos  int    // byte offset in the input
	Line int    // 1-based line number
}

func (t Token) String() string {
	switch t.Kind {
	case TokEOF:
		return "end of input"
	case TokString:
		return fmt.Sprintf("string %q", t.Orig)
	default:
		return fmt.Sprintf("%q", t.Orig)
	}
}

// keywords maps every reserved word to itself, so a lookup hands back the
// upper-case spelling without building one.
var keywords = func() map[string]string {
	m := make(map[string]string)
	for _, w := range strings.Fields(`SELECT FROM WHERE AS AND OR NOT EXISTS IN
		UNION ALL DISTINCT CREATE TABLE VIEW ASSERTION CHECK INSERT INTO VALUES
		DELETE NULL TRUE FALSE PRIMARY KEY FOREIGN REFERENCES INTEGER INT REAL
		FLOAT VARCHAR TEXT BOOLEAN IS BETWEEN DROP COMMIT CALL`) {
		m[w] = w
	}
	return m
}()

// keyword returns the upper-case spelling of word when it is a keyword. It
// upper-cases ASCII letters into a stack buffer as long as the longest
// keyword, so looking up an identifier allocates nothing.
func keyword(word string) (string, bool) {
	var buf [len("REFERENCES")]byte
	if len(word) > len(buf) {
		return "", false
	}
	for i := 0; i < len(word); i++ {
		c := word[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		buf[i] = c
	}
	kw, ok := keywords[string(buf[:len(word)])]
	return kw, ok
}

// Lexer tokenizes a SQL string.
type Lexer struct {
	src  string
	pos  int
	line int
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer { return &Lexer{src: src, line: 1} }

// SyntaxError describes a lexing or parsing failure with source position.
type SyntaxError struct {
	Msg  string
	Pos  int
	Line int
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("sql: line %d: %s", e.Line, e.Msg)
}

func (l *Lexer) errorf(format string, args ...interface{}) error {
	return &SyntaxError{Msg: fmt.Sprintf(format, args...), Pos: l.pos, Line: l.line}
}

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*':
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				return l.errorf("unterminated block comment")
			}
			l.line += strings.Count(l.src[l.pos:l.pos+2+end+2], "\n")
			l.pos += 2 + end + 2
		default:
			return nil
		}
	}
	return nil
}

// Bare identifiers are ASCII-only. Accepting high bytes via
// unicode.IsLetter(rune(c)) would treat a byte-wise Latin-1 letter as an
// identifier character, but strings.ToLower then rewrites the invalid
// UTF-8 to U+FFFD and the result no longer lexes — names the lexer
// produced must always re-lex. Anything else goes in double quotes.
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	start, line := l.pos, l.line
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Pos: start, Line: line}, nil
	}
	c := l.src[l.pos]
	switch {
	case isIdentStart(c):
		for l.pos < len(l.src) && isIdentPart(l.src[l.pos]) {
			l.pos++
		}
		orig := l.src[start:l.pos]
		if kw, ok := keyword(orig); ok {
			return Token{Kind: TokKeyword, Text: kw, Orig: orig, Pos: start, Line: line}, nil
		}
		return Token{Kind: TokIdent, Text: strings.ToLower(orig), Orig: orig, Pos: start, Line: line}, nil

	case c >= '0' && c <= '9':
		kind := TokInt
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] == '.' &&
			l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
			kind = TokFloat
			l.pos++
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		}
		if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
			save := l.pos
			l.pos++
			if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
				l.pos++
			}
			if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				kind = TokFloat
				for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
					l.pos++
				}
			} else {
				l.pos = save
			}
		}
		text := l.src[start:l.pos]
		return Token{Kind: kind, Text: text, Orig: text, Pos: start, Line: line}, nil

	case c == '\'':
		text, err := l.quoted(`'`, "unterminated string literal")
		if err != nil {
			return Token{}, err
		}
		return Token{Kind: TokString, Text: text, Orig: text, Pos: start, Line: line}, nil

	case c == '"':
		// Double-quoted identifier; a doubled "" inside is a literal quote.
		name, err := l.quoted(`"`, "unterminated quoted identifier")
		if err != nil {
			return Token{}, err
		}
		if name == "" {
			return Token{}, l.errorf("empty quoted identifier")
		}
		return Token{Kind: TokIdent, Text: strings.ToLower(name), Orig: name, Pos: start, Line: line}, nil

	case c == '<':
		if l.pos+1 < len(l.src) && (l.src[l.pos+1] == '=' || l.src[l.pos+1] == '>') {
			l.pos += 2
		} else {
			l.pos++
		}
		text := l.src[start:l.pos]
		return Token{Kind: TokSymbol, Text: text, Orig: text, Pos: start, Line: line}, nil

	case c == '>':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
		} else {
			l.pos++
		}
		text := l.src[start:l.pos]
		return Token{Kind: TokSymbol, Text: text, Orig: text, Pos: start, Line: line}, nil

	case c == '!':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '=' {
			l.pos += 2
			return Token{Kind: TokSymbol, Text: "<>", Orig: "!=", Pos: start, Line: line}, nil
		}
		return Token{}, l.errorf("unexpected character %q", c)

	case strings.IndexByte("(),.;=+-*/", c) >= 0:
		l.pos++
		text := l.src[start:l.pos]
		return Token{Kind: TokSymbol, Text: text, Orig: text, Pos: start, Line: line}, nil
	}
	return Token{}, l.errorf("unexpected character %q", c)
}

// quoted scans the quoted text that opens at l.pos with the one-byte quote
// q, where a doubled q stands for one q, and returns its contents in a string
// of their own: a value stored from it does not keep the input alive.
func (l *Lexer) quoted(q, unterminated string) (string, error) {
	start := l.pos + 1
	doubled := false
	for i := start; i < len(l.src); i++ {
		switch l.src[i] {
		case '\n':
			l.line++
		case q[0]:
			if i+1 < len(l.src) && l.src[i+1] == q[0] {
				doubled = true
				i++
				continue
			}
			l.pos = i + 1
			if doubled {
				return strings.ReplaceAll(l.src[start:i], q+q, q), nil
			}
			return strings.Clone(l.src[start:i]), nil
		}
	}
	l.pos = len(l.src)
	return "", l.errorf("%s", unterminated)
}
