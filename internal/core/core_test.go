package core

import (
	"fmt"
	"strings"
	"testing"

	"tintin/internal/engine"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

const schemaSQL = `
CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
CREATE TABLE lineitem (
  l_orderkey INTEGER NOT NULL,
  l_linenumber INTEGER NOT NULL,
  l_quantity INTEGER,
  PRIMARY KEY (l_orderkey, l_linenumber),
  FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey)
);
INSERT INTO orders VALUES (1, 10.5), (2, 20.0);
INSERT INTO lineitem VALUES (1, 1, 5), (2, 1, 9);
`

const assertAtLeastOne = `CREATE ASSERTION atLeastOneLineItem CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)))`

const assertPositiveQty = `CREATE ASSERTION positiveQty CHECK(
  NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity <= 0))`

func newTool(t *testing.T, opts Options) (*Tool, *engine.Engine) {
	t.Helper()
	db := storage.NewDB("tpc")
	tool := New(db, opts)
	if _, err := tool.Engine().ExecSQL(schemaSQL); err != nil {
		t.Fatalf("schema: %v", err)
	}
	if err := tool.Install(); err != nil {
		t.Fatalf("install: %v", err)
	}
	if _, err := tool.AddAssertion(assertAtLeastOne); err != nil {
		t.Fatalf("assertion: %v", err)
	}
	return tool, tool.Engine()
}

func mustExec(t *testing.T, eng *engine.Engine, sql string) {
	t.Helper()
	if _, err := eng.ExecSQL(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func TestSafeCommitCommitsCleanUpdate(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	mustExec(t, eng, `INSERT INTO orders VALUES (3, 30.0)`)
	mustExec(t, eng, `INSERT INTO lineitem VALUES (3, 1, 2)`)
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed || len(res.Violations) != 0 {
		t.Fatalf("expected clean commit, got %+v", res)
	}
	if n := tool.DB().MustTable("orders").Len(); n != 3 {
		t.Errorf("orders rows = %d, want 3", n)
	}
	if n := tool.DB().MustTable("ins_orders").Len(); n != 0 {
		t.Errorf("events not truncated after commit")
	}
}

func TestSafeCommitRejectsViolation(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	mustExec(t, eng, `INSERT INTO orders VALUES (4, 40.0)`)
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("violating update committed")
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violations reported")
	}
	v := res.Violations[0]
	if v.Assertion != "atleastonelineitem" || len(v.Rows) != 1 {
		t.Errorf("violation = %+v", v)
	}
	// Base table untouched, events truncated so new updates can be proposed.
	if n := tool.DB().MustTable("orders").Len(); n != 2 {
		t.Errorf("orders rows = %d, want 2", n)
	}
	if n := tool.DB().MustTable("ins_orders").Len(); n != 0 {
		t.Errorf("events not truncated after rejection")
	}
}

func TestCallSafeCommitProcedure(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	mustExec(t, eng, `INSERT INTO orders VALUES (5, 1.0)`)
	res, err := eng.ExecSQL(`CALL safeCommit`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res[0].Message, "rejected") {
		t.Errorf("message = %q, want rejection", res[0].Message)
	}
	_ = tool
}

func TestTrivialEmptinessSkip(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	if _, err := tool.AddAssertion(assertPositiveQty); err != nil {
		t.Fatal(err)
	}
	// Update touching only lineitem insertions: the orders-rooted views and
	// deletion-rooted views must be skipped.
	mustExec(t, eng, `INSERT INTO lineitem VALUES (1, 2, 3)`)
	res, err := tool.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsSkipped == 0 {
		t.Errorf("no views skipped: %+v", res)
	}
	// atLeastOneLineItem has no ins_lineitem-triggered EDC (inserting a line
	// item can never violate it), so only positiveQty's single view runs.
	if res.ViewsChecked != 1 {
		t.Errorf("views checked = %d, want 1 (got %+v)", res.ViewsChecked, res)
	}
	tool.DB().TruncateEvents()

	// No pending events at all: everything skipped.
	res, err = tool.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsChecked != 0 {
		t.Errorf("views checked with no events = %d, want 0", res.ViewsChecked)
	}
}

func TestSkipDisabledChecksEverything(t *testing.T) {
	opts := DefaultOptions()
	opts.SkipEmptyEventViews = false
	tool, _ := newTool(t, opts)
	res, err := tool.Check()
	if err != nil {
		t.Fatal(err)
	}
	if res.ViewsSkipped != 0 || res.ViewsChecked == 0 {
		t.Errorf("skip disabled but got %+v", res)
	}
}

func TestEventNormalization(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	// Delete order 1's line item and re-insert the identical tuple: the
	// pair cancels and the update is a no-op.
	mustExec(t, eng, `DELETE FROM lineitem WHERE l_orderkey = 1`)
	mustExec(t, eng, `INSERT INTO lineitem VALUES (1, 1, 5)`)
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Fatalf("cancelled update rejected: %+v", res.Violations)
	}
	if res.CancelledEvents != 1 {
		t.Errorf("cancelled = %d, want 1", res.CancelledEvents)
	}
	if n := tool.DB().MustTable("lineitem").Len(); n != 2 {
		t.Errorf("lineitem rows = %d, want 2", n)
	}
}

func TestMultipleAssertionsIndependent(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	if _, err := tool.AddAssertion(assertPositiveQty); err != nil {
		t.Fatal(err)
	}
	mustExec(t, eng, `INSERT INTO lineitem VALUES (1, 3, -4)`)
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed || len(res.Violations) != 1 {
		t.Fatalf("res = %+v", res)
	}
	if res.Violations[0].Assertion != "positiveqty" {
		t.Errorf("violated = %s, want positiveqty", res.Violations[0].Assertion)
	}
}

func TestDuplicateAssertionRejected(t *testing.T) {
	tool, _ := newTool(t, DefaultOptions())
	if _, err := tool.AddAssertion(assertAtLeastOne); err == nil {
		t.Error("duplicate assertion accepted")
	}
}

func TestDropAssertion(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	if err := tool.DropAssertion("atLeastOneLineItem"); err != nil {
		t.Fatal(err)
	}
	if len(tool.Assertions()) != 0 {
		t.Error("assertion still listed")
	}
	// The previously-violating update now commits.
	mustExec(t, eng, `INSERT INTO orders VALUES (4, 40.0)`)
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Committed {
		t.Error("update rejected after assertion dropped")
	}
}

func TestViewsForInspection(t *testing.T) {
	tool, _ := newTool(t, DefaultOptions())
	names, sqls, err := tool.ViewsFor("atLeastOneLineItem")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) == 0 || len(names) != len(sqls) {
		t.Fatalf("names=%v sqls=%d", names, len(sqls))
	}
	for _, s := range sqls {
		if !strings.Contains(s, "SELECT") {
			t.Errorf("view SQL malformed: %s", s)
		}
	}
	if _, _, err := tool.ViewsFor("nope"); err == nil {
		t.Error("expected error for unknown assertion")
	}
}

func TestStats(t *testing.T) {
	tool, _ := newTool(t, DefaultOptions())
	s := tool.Stats()
	if s.Assertions != 1 || s.Views == 0 || s.Views != s.EDCs {
		t.Errorf("stats = %+v", s)
	}
	if s.Discarded == 0 {
		t.Errorf("FK optimization should have discarded EDC 5: %+v", s)
	}
	if len(s.EventTables) != 4 {
		t.Errorf("event tables = %v, want 4", s.EventTables)
	}
}

func TestSequentialTransactions(t *testing.T) {
	tool, eng := newTool(t, DefaultOptions())
	// Transaction 1: clean.
	mustExec(t, eng, `INSERT INTO orders VALUES (10, 1.0)`)
	mustExec(t, eng, `INSERT INTO lineitem VALUES (10, 1, 1)`)
	if res, _ := tool.SafeCommit(); !res.Committed {
		t.Fatal("tx1 rejected")
	}
	// Transaction 2: violating (delete the just-committed line item).
	mustExec(t, eng, `DELETE FROM lineitem WHERE l_orderkey = 10`)
	if res, _ := tool.SafeCommit(); res.Committed {
		t.Fatal("tx2 committed")
	}
	// Transaction 3: the same delete together with the order: clean.
	mustExec(t, eng, `DELETE FROM lineitem WHERE l_orderkey = 10`)
	mustExec(t, eng, `DELETE FROM orders WHERE o_orderkey = 10`)
	if res, _ := tool.SafeCommit(); !res.Committed {
		t.Fatal("tx3 rejected")
	}
	if n := tool.DB().MustTable("orders").Len(); n != 2 {
		t.Errorf("orders = %d, want 2", n)
	}
}

func TestNonAssertionStatementRejected(t *testing.T) {
	tool, _ := newTool(t, DefaultOptions())
	if _, err := tool.AddAssertion(`SELECT * FROM orders`); err == nil {
		t.Error("non-assertion accepted")
	}
}

// TestViolationRowsAreFresh: a violation's rows are projections the check
// built, not the staged or base rows they came from, so a caller may write
// into them. Overwriting every value changes neither the pending events nor,
// once the update is fixed and committed, the base tables.
func TestViolationRowsAreFresh(t *testing.T) {
	for _, workers := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Workers = workers
		tool, eng := newTool(t, opts)
		// Order 4 arrives without line items, and order 1 loses its only one.
		mustExec(t, eng, `INSERT INTO orders VALUES (4, 40.0); DELETE FROM lineitem WHERE l_orderkey = 1`)
		res, err := tool.Check()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, v := range res.Violations {
			for _, r := range v.Rows {
				for i := range r {
					r[i] = sqltypes.NewInt(-1)
					n++
				}
			}
		}
		if n == 0 {
			t.Fatal("the update violates nothing")
		}
		db := tool.DB()
		for table, want := range map[string]string{
			"orders": "[(1, 10.5) (2, 20.0)]", "ins_orders": "[(4, 40.0)]", "del_lineitem": "[(1, 1, 5)]",
		} {
			if got := fmt.Sprint(db.MustTable(table).Rows()); got != want {
				t.Errorf("workers=%d: %s = %s after writing into the violation rows, want %s", workers, table, got, want)
			}
		}
		mustExec(t, eng, `INSERT INTO lineitem VALUES (4, 1, 1), (1, 2, 3)`)
		if res, err := tool.SafeCommit(); err != nil || !res.Committed {
			t.Fatalf("fixed update: %+v, %v", res, err)
		}
		for table, want := range map[string]string{
			"orders": "[(1, 10.5) (2, 20.0) (4, 40.0)]", "lineitem": "[(4, 1, 1) (2, 1, 9) (1, 2, 3)]",
		} {
			if got := fmt.Sprint(db.MustTable(table).Rows()); got != want {
				t.Errorf("workers=%d: committed %s = %s, want %s", workers, table, got, want)
			}
		}
	}
}
