package sqlparser

import (
	"errors"
	"strings"
	"testing"
)

// FuzzParseRoundTrip checks, for arbitrary input:
//
//   - the parser never panics: it either returns an AST or a SyntaxError
//     whose position points inside the input;
//   - printing is a fixpoint: parse → print → parse → print yields the
//     same text (so the printer emits exactly the surface syntax the
//     parser accepts, including numeric-literal edge cases where a REAL
//     must not reprint as an INTEGER and MinInt64 must survive);
//   - every VALUES tuple re-parses to the form it printed from: an
//     all-literal tuple to a row of values, any other to expressions.
//
// Run with:
//
//	go test ./internal/sqlparser -fuzz=FuzzParseRoundTrip -fuzztime=60s
func FuzzParseRoundTrip(f *testing.F) {
	seeds := []string{
		"SELECT * FROM t",
		"SELECT a, b FROM t WHERE a = 1 AND b <> 'x'",
		"SELECT DISTINCT t.a FROM t AS x WHERE NOT EXISTS (SELECT * FROM u WHERE u.a = x.a)",
		"SELECT a FROM t WHERE a IN (1, 2, 3) OR b NOT IN (SELECT c FROM u)",
		"SELECT a FROM t WHERE a IS NOT NULL UNION ALL SELECT b FROM u",
		"SELECT COUNT(*) FROM t WHERE a >= -5",
		"SELECT SUM(a) FROM t WHERE b < 3.25",
		"SELECT COALESCE(a, 0) FROM t",
		"CREATE TABLE t (a INTEGER NOT NULL, b REAL, c VARCHAR, PRIMARY KEY (a))",
		"CREATE TABLE c (x INTEGER, FOREIGN KEY (x) REFERENCES p (pk))",
		"CREATE ASSERTION a1 CHECK (NOT EXISTS (SELECT * FROM t WHERE t.a > 10))",
		"CREATE ASSERTION a2 CHECK ((SELECT COUNT(*) FROM t) <= 100)",
		"CREATE VIEW v AS SELECT a FROM t WHERE a > 0",
		"INSERT INTO t VALUES (1, 2.5, 'x'), (2, NULL, '')",
		"INSERT INTO t (a, b) VALUES (-9223372036854775808, 1e308)",
		"DELETE FROM t WHERE a = 1",
		"DROP TABLE t",
		"CALL safeCommit",
		"SELECT a FROM t WHERE a = 9223372036854775807",
		"SELECT a FROM t WHERE a < -9223372036854775808",
		"SELECT a FROM t WHERE b = 5.0 AND c = -0.125",
		"SELECT a FROM t WHERE -a < 3",
		"SELECT 9223372036854775808 FROM t",
		"SELECT a FROM t WHERE a = 1e999",
		"SELECT '''', '--', 1.5e-3 FROM t",
		"INSERT INTO t VALUES (1, 1+1)",
		"INSERT INTO t VALUES (-5, +5), (- 5, -a)",
		"INSERT INTO t VALUES ((5), - -5), (TRUE, FALSE)",
		"INSERT INTO t VALUES ('it''s', NULL), (NULL IS NULL, 'x')",
		"INSERT INTO t (b, b) VALUES (1, 2)",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<12 {
			return
		}
		st, err := Parse(src)
		if err != nil {
			var se *SyntaxError
			if errors.As(err, &se) {
				if se.Pos < 0 || se.Pos > len(src) {
					t.Fatalf("error position %d outside input of length %d: %v", se.Pos, len(src), err)
				}
				if se.Line < 1 || se.Line > 1+strings.Count(src, "\n") {
					t.Fatalf("error line %d outside input: %v", se.Line, err)
				}
			}
			return
		}
		out := FormatStatement(st)
		st2, err := Parse(out)
		if err != nil {
			t.Fatalf("printed form does not re-parse\ninput: %q\nprinted: %q\nerr: %v", src, out, err)
		}
		out2 := FormatStatement(st2)
		if out != out2 {
			t.Fatalf("printing is not a fixpoint\ninput: %q\nfirst: %q\nsecond: %q", src, out, out2)
		}
		if ins, ok := st.(*Insert); ok {
			for i, tup := range ins.Rows {
				if (tup.Values == nil) == (tup.Exprs == nil) {
					t.Fatalf("tuple %d of %q has both forms or neither: %+v", i, src, tup)
				}
				if again := st2.(*Insert).Rows[i]; (again.Values == nil) != (tup.Values == nil) {
					t.Fatalf("tuple %d of %q changed form on re-parse\nprinted: %q", i, src, out)
				}
			}
		}
	})
}
