package engine

import (
	"fmt"
	"strings"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/storage"
)

// TestInsertIsAllOrNothing: a multi-row INSERT that fails on a later tuple
// stores nothing and, under capture, stages nothing, so a commit after the
// error cannot pick up the tuples before the failing one.
func TestInsertIsAllOrNothing(t *testing.T) {
	cases := []struct {
		sql, err string
		capture  bool // the statement also fails under capture
	}{
		{"INSERT INTO t VALUES (3, 1), (4, 'x')", "cannot", true},
		{"INSERT INTO t VALUES (3, 1), (4)", "expects 2 values", true},
		{"INSERT INTO t VALUES (3, 1), (4, 1 / 0)", "division by zero", true},
		{"INSERT INTO t VALUES (3, 1), (1, 2)", "duplicate primary key", false},
		{"INSERT INTO t VALUES (3, 1), (3, 2)", "duplicate primary key", false},
		{"INSERT INTO t VALUES (3, 1), (4, NULL)", "NOT NULL", false},
	}
	for _, capture := range []bool{false, true} {
		for _, c := range cases {
			if capture && !c.capture {
				continue // staged; ValidateEvents rejects it at commit
			}
			t.Run(fmt.Sprintf("capture=%v/%s", capture, c.sql), func(t *testing.T) {
				db := storage.NewDB("i")
				eng := New(db)
				if _, err := eng.ExecSQL("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER NOT NULL); INSERT INTO t VALUES (1, 1)"); err != nil {
					t.Fatal(err)
				}
				if capture {
					db.EnableCapture()
				}
				if _, err := eng.ExecSQL(c.sql); err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one containing %q", err, c.err)
				}
				if capture {
					if got := tableBag(db, storage.InsTable("t")); got != "[]" {
						t.Errorf("ins_t = %s after the failed INSERT, want empty", got)
					}
					if err := db.ApplyEvents(); err != nil {
						t.Fatal(err)
					}
				}
				if got := tableBag(db, "t"); got != "[(1, 1)]" {
					t.Errorf("t = %s after the failed INSERT, want [(1, 1)]", got)
				}
				// The table takes the same rows once the statement is fixed.
				if _, err := eng.ExecSQL("INSERT INTO t VALUES (3, 1), (4, 2)"); err != nil {
					t.Fatal(err)
				}
				if capture {
					if err := db.ApplyEvents(); err != nil {
						t.Fatal(err)
					}
				}
				if got := tableBag(db, "t"); got != "[(1, 1) (3, 1) (4, 2)]" {
					t.Errorf("t = %s, want [(1, 1) (3, 1) (4, 2)]", got)
				}
			})
		}
	}
}

// TestInsertLiteralRowsAllocs: text to staged rows costs at most one
// allocation per all-literal tuple, its row, plus a per-statement constant:
// neither the parser nor the engine builds an expression node or copies the
// row of a literal tuple in table order.
func TestInsertLiteralRowsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const tuples = 100
	db := storage.NewDB("i")
	eng := New(db)
	if _, err := eng.ExecSQL("CREATE TABLE t (a INTEGER PRIMARY KEY, b REAL, c INTEGER)"); err != nil {
		t.Fatal(err)
	}
	db.EnableCapture()
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < tuples; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, -%d.5, NULL)", i, i)
	}
	sql := sb.String()
	allocs := testing.AllocsPerRun(20, func() {
		stmts, err := sqlparser.ParseScript(sql)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecStatement(stmts[0]); err != nil {
			t.Fatal(err)
		}
		db.TruncateEvents()
	})
	// The constant covers the parser, the statement, its tuple list's
	// growth and the engine's list of rows.
	if allocs > tuples+20 {
		t.Errorf("%d-tuple INSERT: %.0f allocs, want at most %d", tuples, allocs, tuples+20)
	}
}

// TestInsertSharesLiteralRows: a parsed INSERT runs against two databases,
// one of which must coerce its INTEGER to REAL. Each holds the rows its
// schema asks for, the literal row is stored as it is where no coercion is
// needed, and the statement prints the same afterwards.
func TestInsertSharesLiteralRows(t *testing.T) {
	st, err := sqlparser.Parse("INSERT INTO t VALUES (1, 2), (3, -4)")
	if err != nil {
		t.Fatal(err)
	}
	ins := st.(*sqlparser.Insert)
	before := sqlparser.FormatStatement(ins)
	for _, c := range []struct{ typ, want string }{
		{"INTEGER", "[(1, 2) (3, -4)]"},
		{"REAL", "[(1, 2.0) (3, -4.0)]"},
	} {
		db := storage.NewDB(c.typ)
		eng := New(db)
		if _, err := eng.ExecSQL("CREATE TABLE t (a INTEGER PRIMARY KEY, b " + c.typ + ")"); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.ExecStatement(ins); err != nil {
			t.Fatal(err)
		}
		if got := tableBag(db, "t"); got != c.want {
			t.Errorf("b %s: t = %s, want %s", c.typ, got, c.want)
		}
		shared := false
		for _, r := range db.MustTable("t").Rows() {
			shared = shared || &r[0] == &ins.Rows[0].Values[0]
		}
		if shared != (c.typ == "INTEGER") {
			t.Errorf("b %s: table holds the parsed row itself = %v", c.typ, shared)
		}
	}
	if after := sqlparser.FormatStatement(ins); after != before {
		t.Errorf("statement prints %q after running, %q before", after, before)
	}
}
