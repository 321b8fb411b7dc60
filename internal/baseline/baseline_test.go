package baseline

import (
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
  PRIMARY KEY (l_orderkey, l_linenumber)
);
INSERT INTO orders VALUES (1, 10.5), (2, 20.0);
INSERT INTO lineitem VALUES (1, 1, 5), (2, 1, 9);
`

const assertAtLeastOne = `CREATE ASSERTION atLeastOneLineItem CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)))`

func setupDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB("d")
	if _, err := engine.New(db).ExecSQL(schemaSQL); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestCheckCleanState(t *testing.T) {
	db := setupDB(t)
	c, err := New(db, []string{assertAtLeastOne})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("violations = %+v", res.Violations)
	}
	if res.Duration <= 0 {
		t.Error("no duration measured")
	}
}

func TestCheckDetectsViolation(t *testing.T) {
	db := setupDB(t)
	if _, err := engine.New(db).ExecSQL(`INSERT INTO orders VALUES (3, 0.0)`); err != nil {
		t.Fatal(err)
	}
	c, err := New(db, []string{assertAtLeastOne})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 || len(res.Violations[0].Rows) != 1 {
		t.Errorf("violations = %+v", res.Violations)
	}
	if res.Violations[0].Assertion != "atleastonelineitem" {
		t.Errorf("name = %s", res.Violations[0].Assertion)
	}
}

func TestCheckAfterUsesShadowState(t *testing.T) {
	db := setupDB(t)
	db.EnableCapture()
	// Stage a violating insertion as an event.
	if err := db.Insert("ins_orders", sqltypes.Row{sqltypes.NewInt(3), sqltypes.NewFloat(0)}); err != nil {
		t.Fatal(err)
	}
	c, err := New(db, []string{assertAtLeastOne})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.CheckAfter(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("violations = %+v", res.Violations)
	}
	// The original database must be untouched: events still pending, base
	// state unchanged.
	if db.MustTable("orders").Len() != 2 {
		t.Error("CheckAfter mutated the original database")
	}
	if db.MustTable("ins_orders").Len() != 1 {
		t.Error("CheckAfter consumed the staged events")
	}
}

func TestRejectsNonAssertion(t *testing.T) {
	db := setupDB(t)
	if _, err := New(db, []string{"SELECT * FROM orders"}); err == nil {
		t.Error("non-assertion accepted")
	}
	if _, err := New(db, []string{"CREATE ASSERTION broken CHECK ("}); err == nil {
		t.Error("syntax error accepted")
	}
}

func TestClosedBooleanConditions(t *testing.T) {
	db := setupDB(t)
	// EXISTS at top level (not the usual NOT EXISTS shape).
	c, err := New(db, []string{`CREATE ASSERTION hasOrders CHECK (EXISTS (SELECT * FROM orders))`})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("hasOrders should hold: %+v", res.Violations)
	}
	// A conjunction of conditions.
	c, err = New(db, []string{`CREATE ASSERTION both CHECK (
		EXISTS (SELECT * FROM orders) AND NOT EXISTS (SELECT * FROM lineitem WHERE l_quantity < 0))`})
	if err != nil {
		t.Fatal(err)
	}
	res, err = c.Check()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Errorf("both should hold: %+v", res.Violations)
	}
}
