package sqlgen

import (
	"strings"
	"testing"

	"tintin/internal/edc"
	"tintin/internal/engine"
	"tintin/internal/logic"
	"tintin/internal/sqlparser"
	"tintin/internal/storage"
)

// pipeline builds a database, runs assertion → denial → EDC → SQL, installs
// the views, and returns everything needed to exercise them.
type pipeline struct {
	db   *storage.DB
	eng  *engine.Engine
	set  *edc.Set
	view []string // view names in EDC order
}

type dbInfo struct{ db *storage.DB }

func (c dbInfo) TableColumns(name string) ([]string, bool) {
	t := c.db.Table(name)
	if t == nil {
		return nil, false
	}
	return t.Schema().ColumnNames(), true
}

func (c dbInfo) PrimaryKey(name string) []string {
	t := c.db.Table(name)
	if t == nil {
		return nil
	}
	return t.Schema().PrimaryKey
}

func (c dbInfo) ForeignKeys(name string) []edc.FK {
	t := c.db.Table(name)
	if t == nil {
		return nil
	}
	var out []edc.FK
	for _, fk := range t.Schema().ForeignKeys {
		out = append(out, edc.FK{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns})
	}
	return out
}

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

func buildPipeline(t *testing.T, assertionSQL string, opts edc.Options) *pipeline {
	t.Helper()
	db := storage.NewDB("tpc")
	eng := engine.New(db)
	if _, err := eng.ExecSQL(schemaSQL); err != nil {
		t.Fatalf("schema: %v", err)
	}
	db.EnableCapture()
	st, err := sqlparser.Parse(assertionSQL)
	if err != nil {
		t.Fatalf("parse assertion: %v", err)
	}
	ca := st.(*sqlparser.CreateAssertion)
	info := dbInfo{db}
	tr, err := logic.Translate(ca.Name, ca.Check, info)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	set, err := edc.Generate(tr, info, opts)
	if err != nil {
		t.Fatalf("edc: %v", err)
	}
	gen := New(info, set.Rules)
	p := &pipeline{db: db, eng: eng, set: set}
	for i, e := range set.EDCs {
		sel, err := gen.Select(e)
		if err != nil {
			t.Fatalf("sqlgen %s: %v", e.Name, err)
		}
		name := ViewName(ca.Name, i)
		if err := db.CreateView(name, sel); err != nil {
			t.Fatalf("view: %v", err)
		}
		p.view = append(p.view, name)
	}
	return p
}

const assertAtLeastOne = `CREATE ASSERTION atLeastOneLineItem CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)))`

func (p *pipeline) violations(t *testing.T) int {
	t.Helper()
	n := 0
	for _, v := range p.view {
		res, err := p.eng.QueryView(v)
		if err != nil {
			t.Fatalf("view %s: %v", v, err)
		}
		n += len(res.Rows)
	}
	return n
}

func TestGeneratedViewMatchesPaperShape(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.Options{})
	// Find the EDC 4 view: FROM ins_orders with two NOT EXISTS.
	var found string
	for _, v := range p.view {
		sql := sqlparser.FormatSelect(p.db.View(v))
		if strings.Contains(sql, "FROM ins_orders") &&
			strings.Count(sql, "NOT EXISTS") == 2 &&
			strings.Contains(sql, "FROM lineitem") &&
			strings.Contains(sql, "FROM ins_lineitem") {
			found = sql
		}
	}
	if found == "" {
		for _, v := range p.view {
			t.Logf("view %s: %s", v, sqlparser.FormatSelect(p.db.View(v)))
		}
		t.Fatal("no view matching the paper's atLeastOneLineItem1 shape")
	}
}

func TestCleanInsertNoViolation(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	// Insert an order together with its line item: no violation.
	mustExec(t, p.eng, `INSERT INTO orders VALUES (3, 30.0)`)
	mustExec(t, p.eng, `INSERT INTO lineitem VALUES (3, 1, 2)`)
	if n := p.violations(t); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
}

func TestOrderWithoutLineItemViolates(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	mustExec(t, p.eng, `INSERT INTO orders VALUES (4, 40.0)`)
	if n := p.violations(t); n == 0 {
		t.Error("inserting an order without line items must violate")
	}
}

func TestDeletingLastLineItemViolates(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	mustExec(t, p.eng, `DELETE FROM lineitem WHERE l_orderkey = 1`)
	if n := p.violations(t); n == 0 {
		t.Error("deleting the only line item of order 1 must violate")
	}
}

func TestDeletingOneOfTwoLineItemsIsClean(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	// Give order 1 a second line item first, and commit it.
	mustExec(t, p.eng, `INSERT INTO lineitem VALUES (1, 2, 7)`)
	if err := p.db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, p.eng, `DELETE FROM lineitem WHERE l_orderkey = 1 AND l_linenumber = 1`)
	if n := p.violations(t); n != 0 {
		t.Errorf("violations = %d, want 0 (another line item survives)", n)
	}
}

func TestDeleteThenReinsertOtherLineItemIsClean(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	// Delete order 1's only line item but insert a replacement in the same
	// transaction: aux(o) holds via ins_lineitem → no violation.
	mustExec(t, p.eng, `DELETE FROM lineitem WHERE l_orderkey = 1`)
	mustExec(t, p.eng, `INSERT INTO lineitem VALUES (1, 9, 1)`)
	if n := p.violations(t); n != 0 {
		t.Errorf("violations = %d, want 0 (replacement inserted)", n)
	}
}

func TestDeletingOrderAndItsLineItemsIsClean(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	mustExec(t, p.eng, `DELETE FROM orders WHERE o_orderkey = 1`)
	mustExec(t, p.eng, `DELETE FROM lineitem WHERE l_orderkey = 1`)
	if n := p.violations(t); n != 0 {
		t.Errorf("violations = %d, want 0 (order deleted too)", n)
	}
}

func TestEmptyEventsNoViolation(t *testing.T) {
	p := buildPipeline(t, assertAtLeastOne, edc.DefaultOptions())
	if n := p.violations(t); n != 0 {
		t.Errorf("violations with no pending events = %d, want 0", n)
	}
}

func TestBuiltinAssertionViews(t *testing.T) {
	p := buildPipeline(t, `CREATE ASSERTION positiveQty CHECK(
		NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity <= 0))`,
		edc.DefaultOptions())
	mustExec(t, p.eng, `INSERT INTO lineitem VALUES (1, 5, 0)`)
	if n := p.violations(t); n == 0 {
		t.Error("zero quantity insert must violate positiveQty")
	}
	p.db.TruncateEvents()
	mustExec(t, p.eng, `INSERT INTO lineitem VALUES (1, 6, 3)`)
	if n := p.violations(t); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
}

func TestForeignKeyAssertionBothDirections(t *testing.T) {
	p := buildPipeline(t, `CREATE ASSERTION liHasOrder CHECK(
		NOT EXISTS (SELECT * FROM lineitem AS l WHERE NOT EXISTS (
			SELECT * FROM orders AS o WHERE o.o_orderkey = l.l_orderkey)))`,
		edc.DefaultOptions())
	// Orphan line item insert.
	mustExec(t, p.eng, `INSERT INTO lineitem VALUES (99, 1, 1)`)
	if n := p.violations(t); n == 0 {
		t.Error("orphan line item must violate")
	}
	p.db.TruncateEvents()
	// Deleting an order its line item references.
	mustExec(t, p.eng, `DELETE FROM orders WHERE o_orderkey = 2`)
	if n := p.violations(t); n == 0 {
		t.Error("deleting a referenced order must violate")
	}
	p.db.TruncateEvents()
	// Deleting the order together with its line items is clean.
	mustExec(t, p.eng, `DELETE FROM orders WHERE o_orderkey = 2`)
	mustExec(t, p.eng, `DELETE FROM lineitem WHERE l_orderkey = 2`)
	if n := p.violations(t); n != 0 {
		t.Errorf("violations = %d, want 0", n)
	}
}

func TestViewSQLRoundTrips(t *testing.T) {
	// Every generated view must parse back from its printed SQL.
	p := buildPipeline(t, assertAtLeastOne, edc.Options{})
	for _, v := range p.view {
		sql := sqlparser.FormatSelect(p.db.View(v))
		if _, err := sqlparser.ParseSelect(sql); err != nil {
			t.Errorf("view %s does not round-trip: %v\n%s", v, err, sql)
		}
	}
}

func mustExec(t *testing.T, eng *engine.Engine, sql string) {
	t.Helper()
	if _, err := eng.ExecSQL(sql); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}
