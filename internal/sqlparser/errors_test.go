package sqlparser

import (
	"errors"
	"testing"
)

// TestParseErrorPositions pins the message and position of every kind of
// syntax error ParseScript reports. A lexing error anywhere in the input
// wins over a parse error earlier in the same script.
func TestParseErrorPositions(t *testing.T) {
	cases := []struct {
		src       string
		msg       string
		pos, line int
	}{
		// A lexing error after an earlier parse error.
		{"SELECT FROM t; SELECT 'unterminated", "unterminated string literal", 35, 1},
		{"SELECT FROM t; SELECT 'a\nb", "unterminated string literal", 26, 2},
		{"SELECT * t /* unterminated\n comment", "unterminated block comment", 11, 1},
		{"SELECT , FROM t WHERE a ! b", "unexpected character '!'", 24, 1},
		{"SELECT * FROM;\nSELECT \"\" FROM t", "empty quoted identifier", 24, 2},
		{"SELECT * FROM;\nSELECT \"a\nb FROM t", "unterminated quoted identifier", 33, 3},
		// Column types.
		{"CREATE TABLE t (a INTEGER, b SELECT)", "unsupported column type \"SELECT\"", 29, 1},
		{"CREATE TABLE t (a WIBBLE)", "expected column type, found \"WIBBLE\"", 18, 1},
		// Numeric literals inside VALUES.
		{"INSERT INTO t VALUES (1, 9223372036854775808)", "integer literal 9223372036854775808 does not fit in 64 bits", 25, 1},
		{"INSERT INTO t VALUES (-9223372036854775809, 2)", "integer literal -9223372036854775809 does not fit in 64 bits", 23, 1},
		{"INSERT INTO t VALUES (- -9223372036854775808)", "integer literal -9223372036854775808 cannot be negated", 44, 1},
		{"INSERT INTO t VALUES (1e999), (2)", "numeric literal 1e999 is out of range", 22, 1},
		{"INSERT INTO t VALUES (1, 2), (-1e999)", "numeric literal -1e999 is out of range", 31, 1},
		// The last statement fails to lex.
		{"INSERT INTO t VALUES (1, 2);\nSELECT a FROM t;\nDELETE FROM t WHERE a = 'oops", "unterminated string literal", 75, 3},
		{"SELECT a FROM t WHERE a = 'x''", "unterminated string literal", 30, 1},
		{"SELECT a FROM t WHERE \"\" = 1", "empty quoted identifier", 24, 1},
		// Malformed tuples.
		{"INSERT INTO t VALUES (1 2)", "expected \")\", found \"2\"", 24, 1},
		{"INSERT INTO t VALUES (1,)", "unexpected \")\" in expression", 24, 1},
		{"INSERT INTO t VALUES ()", "unexpected \")\" in expression", 22, 1},
		{"INSERT INTO t VALUES (1, 'a' 'b')", "expected \")\", found string \"b\"", 29, 1},
		// Statement boundaries.
		{"DELETE FROM t WHERE a = 1 garbage", "expected ';' between statements, found \"garbage\"", 26, 1},
		{"SELECT a FROM t\nWHERE a = 1;\n\nCALL", "expected identifier, found end of input", 34, 4},
	}
	for _, c := range cases {
		_, err := ParseScript(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: got %v, want a SyntaxError", c.src, err)
			continue
		}
		if se.Msg != c.msg || se.Pos != c.pos || se.Line != c.line {
			t.Errorf("%q: got (%q, pos %d, line %d), want (%q, pos %d, line %d)",
				c.src, se.Msg, se.Pos, se.Line, c.msg, c.pos, c.line)
		}
	}
}
