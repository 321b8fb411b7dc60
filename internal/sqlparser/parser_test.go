package sqlparser

import (
	"strings"
	"testing"

	"tintin/internal/sqltypes"
)

func parseSelect(t *testing.T, q string) *Select {
	t.Helper()
	sel, err := ParseSelect(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return sel
}

// Tokenize lexes the whole input, returning all tokens up to and including EOF.
func Tokenize(src string) ([]Token, error) {
	lx := NewLexer(src)
	var out []Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == TokEOF {
			return out, nil
		}
	}
}

func TestLexerBasics(t *testing.T) {
	toks, err := Tokenize("SELECT a.b, 'it''s', 1.5e3 FROM t -- comment\nWHERE x <> 2 /* block */ AND y != 3;")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, "SELECT a . b") {
		t.Errorf("tokens: %q", joined)
	}
	if !strings.Contains(joined, "it's") {
		t.Errorf("string literal mishandled: %q", joined)
	}
	// != normalizes to <>
	if strings.Count(joined, "<>") != 2 {
		t.Errorf("inequality normalization: %q", joined)
	}
	_ = kinds
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"'unterminated", "\"unterminated", "/* unterminated", "a @ b"} {
		if _, err := Tokenize(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestLexerLineNumbers(t *testing.T) {
	toks, err := Tokenize("a\nb\nc")
	if err != nil {
		t.Fatal(err)
	}
	if toks[2].Line != 3 {
		t.Errorf("line = %d, want 3", toks[2].Line)
	}
}

func TestQuotedIdentifiers(t *testing.T) {
	sel := parseSelect(t, `SELECT "Weird Col" FROM "MyTable"`)
	if sel.From[0].Table != "mytable" {
		t.Errorf("table = %s", sel.From[0].Table)
	}
	cr := sel.Columns[0].Expr.(*ColumnRef)
	if cr.Name != "weird col" {
		t.Errorf("column = %s", cr.Name)
	}
}

func TestSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM orders")
	if !sel.Star || len(sel.From) != 1 || sel.From[0].Table != "orders" {
		t.Errorf("%+v", sel)
	}
}

func TestSelectAliases(t *testing.T) {
	sel := parseSelect(t, "SELECT o.a AS x, o.b y FROM orders AS o, lineitem l")
	if sel.Columns[0].Alias != "x" || sel.Columns[1].Alias != "y" {
		t.Errorf("column aliases: %+v", sel.Columns)
	}
	if sel.From[0].Alias != "o" || sel.From[1].Alias != "l" {
		t.Errorf("table aliases: %+v", sel.From)
	}
	if sel.From[1].EffectiveAlias() != "l" {
		t.Error("EffectiveAlias")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or, ok := sel.Where.(*Binary)
	if !ok || or.Op != OpOr {
		t.Fatalf("top is not OR: %T", sel.Where)
	}
	and, ok := or.R.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("right of OR is not AND: %T", or.R)
	}
}

func TestArithmeticPrecedence(t *testing.T) {
	sel := parseSelect(t, "SELECT a + b * c FROM t")
	add := sel.Columns[0].Expr.(*Binary)
	if add.Op != OpAdd {
		t.Fatalf("top op %s", add.Op)
	}
	if mul := add.R.(*Binary); mul.Op != OpMul {
		t.Fatalf("right op %s", mul.Op)
	}
}

func TestNotExists(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE NOT EXISTS (SELECT * FROM u)")
	ex, ok := sel.Where.(*Exists)
	if !ok || !ex.Negated {
		t.Fatalf("%T %+v", sel.Where, sel.Where)
	}
}

func TestDoubleNegation(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE NOT NOT EXISTS (SELECT * FROM u)")
	ex, ok := sel.Where.(*Exists)
	if !ok || ex.Negated {
		t.Fatalf("double negation not folded: %+v", sel.Where)
	}
}

func TestNotIn(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a NOT IN (SELECT b FROM u)")
	in, ok := sel.Where.(*InSubquery)
	if !ok || !in.Negated {
		t.Fatalf("%T", sel.Where)
	}
	sel = parseSelect(t, "SELECT * FROM t WHERE a NOT IN (1, 2)")
	il, ok := sel.Where.(*InList)
	if !ok || !il.Negated || len(il.Items) != 2 {
		t.Fatalf("%+v", sel.Where)
	}
}

func TestIsNull(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
	and := sel.Where.(*Binary)
	l := and.L.(*IsNull)
	r := and.R.(*IsNull)
	if l.Negated || !r.Negated {
		t.Errorf("%+v %+v", l, r)
	}
}

func TestBetweenDesugars(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a BETWEEN 1 AND 5")
	and, ok := sel.Where.(*Binary)
	if !ok || and.Op != OpAnd {
		t.Fatalf("%T", sel.Where)
	}
	if and.L.(*Binary).Op != OpGe || and.R.(*Binary).Op != OpLe {
		t.Error("BETWEEN bounds wrong")
	}
}

func TestUnionChain(t *testing.T) {
	sel := parseSelect(t, "SELECT a FROM t UNION SELECT b FROM u UNION ALL SELECT c FROM v")
	if sel.Union == nil || sel.UnionAll {
		t.Fatal("first UNION wrong")
	}
	if sel.Union.Union == nil || !sel.Union.UnionAll {
		t.Fatal("second UNION wrong")
	}
}

func TestNegativeNumberLiterals(t *testing.T) {
	sel := parseSelect(t, "SELECT -5, -2.5, -a FROM t")
	if v := sel.Columns[0].Expr.(*Literal).Value; v.Int() != -5 {
		t.Errorf("int: %v", v)
	}
	if v := sel.Columns[1].Expr.(*Literal).Value; v.Float() != -2.5 {
		t.Errorf("float: %v", v)
	}
	if _, ok := sel.Columns[2].Expr.(*Neg); !ok {
		t.Error("column negation")
	}
}

func TestCreateTableFull(t *testing.T) {
	st, err := Parse(`CREATE TABLE lineitem (
		l_orderkey INTEGER NOT NULL,
		l_linenumber INTEGER,
		l_comment VARCHAR(44),
		l_price REAL,
		l_flag BOOLEAN,
		PRIMARY KEY (l_orderkey, l_linenumber),
		FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if len(ct.Columns) != 5 || len(ct.PrimaryKey) != 2 || len(ct.ForeignKeys) != 1 {
		t.Errorf("%+v", ct)
	}
	if ct.Columns[0].Type != sqltypes.KindInt || !ct.Columns[0].NotNull {
		t.Errorf("col0: %+v", ct.Columns[0])
	}
	if ct.Columns[2].Type != sqltypes.KindString {
		t.Errorf("varchar(44): %+v", ct.Columns[2])
	}
}

func TestCreateTableColumnLevelPK(t *testing.T) {
	st, err := Parse(`CREATE TABLE t (id INTEGER PRIMARY KEY, v REAL)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*CreateTable)
	if !ct.Columns[0].PrimaryKey || !ct.Columns[0].NotNull {
		t.Errorf("%+v", ct.Columns[0])
	}
}

func TestCreateAssertion(t *testing.T) {
	st, err := Parse(`CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM t))`)
	if err != nil {
		t.Fatal(err)
	}
	ca := st.(*CreateAssertion)
	if ca.Name != "a" {
		t.Errorf("name %s", ca.Name)
	}
	if _, ok := ca.Check.(*Exists); !ok {
		t.Errorf("check %T", ca.Check)
	}
}

func TestInsertMultiRow(t *testing.T) {
	st, err := Parse(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)`)
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*Insert)
	if len(ins.Rows) != 2 || len(ins.Columns) != 2 {
		t.Errorf("%+v", ins)
	}
}

func TestDeleteForms(t *testing.T) {
	st, err := Parse(`DELETE FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Delete).Where != nil {
		t.Error("where should be nil")
	}
	st, err = Parse(`DELETE FROM t AS x WHERE x.a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if st.(*Delete).Alias != "x" {
		t.Error("alias lost")
	}
}

func TestParseScriptSemicolons(t *testing.T) {
	sts, err := ParseScript(";;SELECT a FROM t; DELETE FROM t;;")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Errorf("statements = %d, want 2", len(sts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"SELECT * FROM t WHERE a =",
		"INSERT INTO t VALUES",
		"CREATE TABLE t ()",
		"CREATE TABLE t (a WIBBLE)",
		"CREATE ASSERTION x CHECK NOT EXISTS (SELECT * FROM t)", // missing parens
		"SELECT * FROM t; garbage",
		"SELECT LOWER(x) FROM t", // unknown function
		"SELECT COUNT(a, b) FROM t",
		"SELECT COALESCE(a) FROM t",
		"DELETE t",
	}
	for _, src := range bad {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestFormatRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT * FROM orders AS o WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.k = o.k)",
		"SELECT a, b AS c FROM t, u WHERE t.x = u.y AND (t.z > 3 OR u.w < 2)",
		"SELECT a FROM t WHERE a IN (SELECT b FROM u WHERE u.c = t.c)",
		"SELECT a FROM t WHERE a NOT IN (1, 2, 3)",
		"SELECT a FROM t UNION ALL SELECT b FROM u",
		"SELECT a FROM t WHERE a IS NOT NULL",
		"SELECT -a + 2 * b FROM t WHERE NOT (a = 1 AND b = 2)",
	}
	for _, q := range queries {
		sel1 := parseSelect(t, q)
		printed := FormatSelect(sel1)
		sel2, err := ParseSelect(printed)
		if err != nil {
			t.Errorf("reparse of %q failed: %v", printed, err)
			continue
		}
		if FormatSelect(sel2) != printed {
			t.Errorf("not a fixpoint:\n1: %s\n2: %s", printed, FormatSelect(sel2))
		}
	}
}

func TestFormatStatements(t *testing.T) {
	script := []string{
		`CREATE TABLE t (a INTEGER PRIMARY KEY, b VARCHAR NOT NULL, FOREIGN KEY (b) REFERENCES u (c))`,
		`CREATE VIEW v AS SELECT * FROM t`,
		`CREATE ASSERTION x CHECK (NOT EXISTS (SELECT * FROM t WHERE a < 0))`,
		`INSERT INTO t (a) VALUES (1), (2)`,
		`DELETE FROM t AS q WHERE q.a = 1`,
		`DROP TABLE t`,
		`DROP VIEW v`,
		`CALL safecommit`,
		`SELECT a FROM t`,
	}
	for _, src := range script {
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := FormatStatement(st)
		if _, err := Parse(printed); err != nil {
			t.Errorf("formatted %q does not reparse: %v", printed, err)
		}
	}
}

func TestAggregateParsing(t *testing.T) {
	sel := parseSelect(t, "SELECT COUNT(*), SUM(x), MIN(y) FROM t")
	if len(sel.Columns) != 3 {
		t.Fatalf("%+v", sel.Columns)
	}
	c := sel.Columns[0].Expr.(*FuncCall)
	if c.Name != "COUNT" || !c.Star || !c.IsAggregate() {
		t.Errorf("COUNT(*): %+v", c)
	}
	s := sel.Columns[1].Expr.(*FuncCall)
	if s.Name != "SUM" || len(s.Args) != 1 {
		t.Errorf("SUM: %+v", s)
	}
}

func TestScalarSubqueryParsing(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE (SELECT COUNT(*) FROM u WHERE u.k = t.k) > 10")
	cmp := sel.Where.(*Binary)
	if cmp.Op != OpGt {
		t.Fatalf("op %s", cmp.Op)
	}
	sq, ok := cmp.L.(*ScalarSubquery)
	if !ok {
		t.Fatalf("left is %T", cmp.L)
	}
	if _, ok := sq.Query.Columns[0].Expr.(*FuncCall); !ok {
		t.Error("aggregate lost")
	}
	// Round trip.
	printed := FormatSelect(sel)
	if _, err := ParseSelect(printed); err != nil {
		t.Errorf("round trip: %v\n%s", err, printed)
	}
}

func TestConjunctsAndAndAll(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a = 1 AND b = 2 AND c = 3")
	cs := Conjuncts(sel.Where)
	if len(cs) != 3 {
		t.Fatalf("conjuncts = %d", len(cs))
	}
	round := AndAll(cs)
	if len(Conjuncts(round)) != 3 {
		t.Error("AndAll/Conjuncts round trip")
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil)")
	}
}

func TestTablesReferenced(t *testing.T) {
	sel := parseSelect(t, `SELECT * FROM a WHERE EXISTS (
		SELECT * FROM b WHERE b.x IN (SELECT y FROM c)) UNION SELECT * FROM d`)
	got := TablesReferenced(sel)
	want := []string{"a", "b", "c", "d"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestWalkExprPrune(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM t WHERE a = 1 AND EXISTS (SELECT * FROM u WHERE b = 2)")
	count := 0
	WalkExpr(sel.Where, func(e Expr) bool {
		count++
		_, isExists := e.(*Exists)
		return !isExists // prune subquery
	})
	// AND, a=1 (a, 1), EXISTS: the literal b=2 inside must not be visited.
	if count != 5 {
		t.Errorf("visited %d nodes, want 5", count)
	}
}

func TestBinaryOpHelpers(t *testing.T) {
	if neg, ok := OpLt.Negate(); !ok || neg != OpGe {
		t.Error("Negate OpLt")
	}
	if neg, ok := OpEq.Negate(); !ok || neg != OpNe {
		t.Error("Negate OpEq")
	}
	if !OpLe.IsComparison() || OpAdd.IsComparison() {
		t.Error("IsComparison")
	}
	if _, ok := OpAnd.Negate(); ok {
		t.Error("Negate on AND must report ok=false")
	}
}

func TestInsertDuplicateColumnRejected(t *testing.T) {
	_, err := Parse("INSERT INTO t (b, a, b) VALUES (1, 2, 3)")
	se, ok := err.(*SyntaxError)
	if !ok || se.Pos != 21 || !strings.Contains(se.Msg, "column b") {
		t.Fatalf("err = %#v, want a SyntaxError naming column b at its second mention (offset 21)", err)
	}
}

// TestInsertTupleForms: a VALUES item read straight off the token window has
// the value ParseExpr gives the same text, and one item that is not a literal
// puts the whole tuple in expression form.
func TestInsertTupleForms(t *testing.T) {
	items := []string{"5", "-5", "- 5", "+5", "(5)", "- -5", "-9223372036854775808", "9223372036854775807",
		"1.5e3", "-0.0", "-2.25", "'it''s'", "''", "NULL", "TRUE", "FALSE", "(NULL)"}
	for _, item := range items {
		e, err := ParseExpr(item)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", item, err)
		}
		want := e.(*Literal).Value
		st, err := Parse("INSERT INTO t VALUES (" + item + ", " + item + ")")
		if err != nil {
			t.Fatalf("%q: %v", item, err)
		}
		tup := st.(*Insert).Rows[0]
		if tup.Exprs != nil || len(tup.Values) != 2 || !sqltypes.Identical(tup.Values[1], want) {
			t.Errorf("(%s, %s) parses to %+v, want the row (%v, %v)", item, item, tup, want, want)
		}
	}
	st, err := Parse("INSERT INTO t VALUES (1, 1 + 1, 'x'), (2, 3, 'y')")
	if err != nil {
		t.Fatal(err)
	}
	rows := st.(*Insert).Rows
	if rows[0].Values != nil || len(rows[0].Exprs) != 3 || rows[1].Exprs != nil || len(rows[1].Values) != 3 {
		t.Errorf("mixed tuple forms: %+v", rows)
	}
	if _, ok := rows[0].Exprs[0].(*Literal); !ok {
		t.Errorf("the literal before an expression is %T, want *Literal", rows[0].Exprs[0])
	}
}
