package engine

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// newTestDB builds the two-table schema of the paper's running example plus
// a small typed table for expression tests.
func newTestDB(t *testing.T) (*storage.DB, *Engine) {
	t.Helper()
	db := storage.NewDB("testdb")
	eng := New(db)
	script := `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  l_quantity INTEGER,
  PRIMARY KEY (l_orderkey, l_linenumber),
  FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey)
);
CREATE TABLE misc (id INTEGER, name VARCHAR, ok BOOLEAN, score REAL);
INSERT INTO orders VALUES (1, 10.5), (2, 20.0), (3, 7.25);
INSERT INTO lineitem VALUES (1, 1, 5), (1, 2, 3), (2, 1, 9);
INSERT INTO misc VALUES (1, 'alice', TRUE, 3.5), (2, 'bob', FALSE, NULL), (3, NULL, TRUE, 1.0);
`
	if _, err := eng.ExecSQL(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	return db, eng
}

func rowsAsStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

func queryStrings(t *testing.T, eng *Engine, q string) []string {
	t.Helper()
	res, err := eng.QuerySQL(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return rowsAsStrings(res)
}

func TestSelectAll(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, "SELECT * FROM orders")
	want := []string{"(1, 10.5)", "(2, 20.0)", "(3, 7.25)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestProjectionAndWhere(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, "SELECT o.o_orderkey FROM orders AS o WHERE o.o_totalprice > 9")
	want := []string{"(1)", "(2)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestJoinTwoTables(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng,
		"SELECT o.o_orderkey, l.l_linenumber FROM orders AS o, lineitem AS l WHERE l.l_orderkey = o.o_orderkey")
	want := []string{"(1, 1)", "(1, 2)", "(2, 1)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestJoinWithoutIndexProbes(t *testing.T) {
	_, eng := newTestDB(t)
	eng.DisableIndexProbes = true
	got := queryStrings(t, eng,
		"SELECT o.o_orderkey, l.l_linenumber FROM orders AS o, lineitem AS l WHERE l.l_orderkey = o.o_orderkey")
	want := []string{"(1, 1)", "(1, 2)", "(2, 1)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestNotExistsRunningExample(t *testing.T) {
	// Orders without any line item: order 3.
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, `
SELECT * FROM orders AS o
WHERE NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)`)
	want := []string{"(3, 7.25)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestExistsCorrelated(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, `
SELECT o.o_orderkey FROM orders AS o
WHERE EXISTS (SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey AND l.l_quantity > 4)`)
	want := []string{"(1)", "(2)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestInSubquery(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng,
		"SELECT o.o_orderkey FROM orders AS o WHERE o.o_orderkey IN (SELECT l.l_orderkey FROM lineitem AS l)")
	want := []string{"(1)", "(1)", "(1)", "(2)"}
	// IN is a predicate, not a join: each order matches at most once.
	want = []string{"(1)", "(2)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestNotInSubquery(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng,
		"SELECT o.o_orderkey FROM orders AS o WHERE o.o_orderkey NOT IN (SELECT l.l_orderkey FROM lineitem AS l)")
	want := []string{"(3)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestInList(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, "SELECT o_orderkey FROM orders WHERE o_orderkey IN (1, 3, 99)")
	want := []string{"(1)", "(3)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestUnionDedupes(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng,
		"SELECT o_orderkey FROM orders UNION SELECT l_orderkey FROM lineitem")
	want := []string{"(1)", "(2)", "(3)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestUnionAllKeepsDuplicates(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng,
		"SELECT o_orderkey FROM orders UNION ALL SELECT l_orderkey FROM lineitem")
	if len(got) != 6 {
		t.Errorf("UNION ALL: got %d rows (%v), want 6", len(got), got)
	}
}

func TestDistinct(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, "SELECT DISTINCT l_orderkey FROM lineitem")
	want := []string{"(1)", "(2)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
}

func TestViews(t *testing.T) {
	_, eng := newTestDB(t)
	if _, err := eng.ExecSQL("CREATE VIEW big_orders AS SELECT * FROM orders WHERE o_totalprice > 9"); err != nil {
		t.Fatalf("create view: %v", err)
	}
	got := queryStrings(t, eng, "SELECT b.o_orderkey FROM big_orders AS b WHERE b.o_orderkey < 2")
	want := []string{"(1)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
	res, err := eng.QueryView("big_orders")
	if err != nil {
		t.Fatalf("QueryView: %v", err)
	}
	if len(res.Rows) != 2 {
		t.Errorf("view rows = %d, want 2", len(res.Rows))
	}
	ne, err := eng.ViewNonEmpty("big_orders")
	if err != nil || !ne {
		t.Errorf("ViewNonEmpty = %v, %v; want true, nil", ne, err)
	}
}

func TestNullSemantics(t *testing.T) {
	_, eng := newTestDB(t)
	// NULL never matches equality...
	got := queryStrings(t, eng, "SELECT id FROM misc WHERE name = NULL")
	if len(got) != 0 {
		t.Errorf("= NULL matched %v", got)
	}
	// ...but IS NULL does.
	got = queryStrings(t, eng, "SELECT id FROM misc WHERE name IS NULL")
	if fmt.Sprint(got) != "[(3)]" {
		t.Errorf("IS NULL: got %v", got)
	}
	got = queryStrings(t, eng, "SELECT id FROM misc WHERE name IS NOT NULL")
	if fmt.Sprint(got) != "[(1) (2)]" {
		t.Errorf("IS NOT NULL: got %v", got)
	}
	// NOT (NULL comparison) stays unknown: row 2 (score NULL) excluded both ways.
	got = queryStrings(t, eng, "SELECT id FROM misc WHERE NOT (score > 2)")
	if fmt.Sprint(got) != "[(3)]" {
		t.Errorf("NOT with null: got %v", got)
	}
}

func TestArithmetic(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, "SELECT o_orderkey + 10, o_totalprice * 2 FROM orders WHERE o_orderkey = 1")
	want := []string{"(11, 21.0)"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("got %v want %v", got, want)
	}
	got = queryStrings(t, eng, "SELECT id FROM misc WHERE score + 1 > 2")
	if fmt.Sprint(got) != "[(1)]" {
		t.Errorf("score+1>2: got %v", got)
	}
}

func TestBetween(t *testing.T) {
	_, eng := newTestDB(t)
	got := queryStrings(t, eng, "SELECT o_orderkey FROM orders WHERE o_totalprice BETWEEN 8 AND 15")
	if fmt.Sprint(got) != "[(1)]" {
		t.Errorf("BETWEEN: got %v", got)
	}
	got = queryStrings(t, eng, "SELECT o_orderkey FROM orders WHERE o_totalprice NOT BETWEEN 8 AND 15")
	if fmt.Sprint(got) != "[(2) (3)]" {
		t.Errorf("NOT BETWEEN: got %v", got)
	}
}

func TestDeleteWithWhere(t *testing.T) {
	_, eng := newTestDB(t)
	res, err := eng.ExecSQL("DELETE FROM lineitem WHERE l_orderkey = 1")
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if res[0].RowsAffected != 2 {
		t.Errorf("deleted %d rows, want 2", res[0].RowsAffected)
	}
	got := queryStrings(t, eng, "SELECT * FROM lineitem")
	if fmt.Sprint(got) != "[(2, 1, 9)]" {
		t.Errorf("after delete: %v", got)
	}
}

func TestDeleteWithAlias(t *testing.T) {
	_, eng := newTestDB(t)
	if _, err := eng.ExecSQL("DELETE FROM lineitem AS l WHERE l.l_quantity < 4"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	got := queryStrings(t, eng, "SELECT l_quantity FROM lineitem")
	if fmt.Sprint(got) != "[(5) (9)]" {
		t.Errorf("after delete: %v", got)
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	_, eng := newTestDB(t)
	_, err := eng.ExecSQL("INSERT INTO orders VALUES (1, 99.0)")
	if err == nil || !strings.Contains(err.Error(), "duplicate primary key") {
		t.Errorf("expected duplicate PK error, got %v", err)
	}
}

func TestNotNullViolation(t *testing.T) {
	_, eng := newTestDB(t)
	_, err := eng.ExecSQL("INSERT INTO lineitem VALUES (NULL, 1, 5)")
	if err == nil || !strings.Contains(err.Error(), "NOT NULL") {
		t.Errorf("expected NOT NULL error, got %v", err)
	}
}

func TestUnknownTableErrors(t *testing.T) {
	_, eng := newTestDB(t)
	if _, err := eng.QuerySQL("SELECT * FROM nope"); err == nil {
		t.Error("expected error for unknown table")
	}
	if _, err := eng.QuerySQL("SELECT nope_col FROM orders"); err == nil {
		t.Error("expected error for unknown column")
	}
	if _, err := eng.QuerySQL("SELECT * FROM orders AS a, lineitem AS a"); err == nil {
		t.Error("expected error for duplicate alias")
	}
}

func TestAmbiguousColumn(t *testing.T) {
	_, eng := newTestDB(t)
	_, err := eng.QuerySQL("SELECT l_orderkey FROM lineitem AS a, lineitem AS b")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("expected ambiguity error, got %v", err)
	}
}

func TestCorrelatedSubqueryTwoLevels(t *testing.T) {
	_, eng := newTestDB(t)
	// Orders that have a line item whose quantity equals another line item's
	// quantity on the same order — none in this data set.
	got := queryStrings(t, eng, `
SELECT o.o_orderkey FROM orders AS o
WHERE EXISTS (SELECT * FROM lineitem AS l
              WHERE l.l_orderkey = o.o_orderkey
                AND EXISTS (SELECT * FROM lineitem AS l2
                            WHERE l2.l_orderkey = o.o_orderkey
                              AND l2.l_linenumber <> l.l_linenumber
                              AND l2.l_quantity = l.l_quantity))`)
	if len(got) != 0 {
		t.Errorf("got %v, want none", got)
	}
}

func TestCallUnknownProcedure(t *testing.T) {
	_, eng := newTestDB(t)
	if _, err := eng.ExecSQL("CALL nothing"); err == nil {
		t.Error("expected error for unknown procedure")
	}
	eng.RegisterProcedure("hello", func() (*ExecResult, error) {
		return &ExecResult{Message: "hi"}, nil
	})
	res, err := eng.ExecSQL("CALL hello")
	if err != nil || res[0].Message != "hi" {
		t.Errorf("CALL hello = %v, %v", res, err)
	}
}

func TestCreateAssertionRejectedByEngine(t *testing.T) {
	_, eng := newTestDB(t)
	_, err := eng.ExecSQL("CREATE ASSERTION a CHECK (NOT EXISTS (SELECT * FROM orders))")
	if err == nil || !strings.Contains(err.Error(), "TINTIN") {
		t.Errorf("expected TINTIN redirect error, got %v", err)
	}
}

func TestInsertColumnSubset(t *testing.T) {
	_, eng := newTestDB(t)
	if _, err := eng.ExecSQL("INSERT INTO misc (id, name) VALUES (9, 'zoe')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	got := queryStrings(t, eng, "SELECT id, name, ok, score FROM misc WHERE id = 9")
	if fmt.Sprint(got) != "[(9, 'zoe', NULL, NULL)]" {
		t.Errorf("got %v", got)
	}
}

func TestCaptureModeRouting(t *testing.T) {
	db, eng := newTestDB(t)
	db.EnableCapture()
	if _, err := eng.ExecSQL("INSERT INTO orders VALUES (4, 1.0)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if _, err := eng.ExecSQL("DELETE FROM orders WHERE o_orderkey = 1"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if n := db.MustTable("orders").Len(); n != 3 {
		t.Errorf("base table changed under capture: %d rows", n)
	}
	if n := db.MustTable("ins_orders").Len(); n != 1 {
		t.Errorf("ins_orders = %d rows, want 1", n)
	}
	if n := db.MustTable("del_orders").Len(); n != 1 {
		t.Errorf("del_orders = %d rows, want 1", n)
	}
	// Queries see the unchanged base state.
	got := queryStrings(t, eng, "SELECT o_orderkey FROM orders")
	if fmt.Sprint(got) != "[(1) (2) (3)]" {
		t.Errorf("base rows: %v", got)
	}
	// Apply and verify.
	if err := db.ApplyEvents(); err != nil {
		t.Fatalf("apply: %v", err)
	}
	got = queryStrings(t, eng, "SELECT o_orderkey FROM orders")
	if fmt.Sprint(got) != "[(2) (3) (4)]" {
		t.Errorf("after apply: %v", got)
	}
	if n := db.MustTable("ins_orders").Len(); n != 0 {
		t.Errorf("events not truncated: ins=%d", n)
	}
}

func TestResultColumnsNaming(t *testing.T) {
	_, eng := newTestDB(t)
	res, err := eng.QuerySQL("SELECT o_orderkey AS k, o_totalprice FROM orders")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "k" || res.Columns[1] != "o_totalprice" {
		t.Errorf("columns = %v", res.Columns)
	}
	res, err = eng.QuerySQL("SELECT * FROM orders AS o")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "o.o_orderkey" {
		t.Errorf("star columns = %v", res.Columns)
	}
}

func TestValueCoercionOnInsert(t *testing.T) {
	db, eng := newTestDB(t)
	// Integer literal into REAL column.
	if _, err := eng.ExecSQL("INSERT INTO orders VALUES (10, 42)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	rows := db.MustTable("orders").LookupEqual([]int{0}, []sqltypes.Value{sqltypes.NewInt(10)})
	if len(rows) != 1 || rows[0][1].Kind() != sqltypes.KindFloat {
		t.Errorf("coercion failed: %v", rows)
	}
}
