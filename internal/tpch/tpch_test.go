package tpch

import (
	"testing"

	"tintin/internal/core"
	"tintin/internal/engine"
	"tintin/internal/sqltypes"
)

func smallDB(t *testing.T) (*Generator, *engine.Engine) {
	t.Helper()
	db, gen, err := NewDatabase("tpc", ScaleOrders("tiny", 500), 7)
	if err != nil {
		t.Fatal(err)
	}
	return gen, engine.New(db)
}

func TestSchemaHasAllFigure1Tables(t *testing.T) {
	gen, _ := smallDB(t)
	db := gen.db
	for _, name := range []string{"region", "nation", "customer", "supplier", "part", "partsupp", "orders", "lineitem"} {
		if db.Table(name) == nil {
			t.Errorf("missing table %s", name)
		}
	}
	// Spot-check FKs of the figure's associations.
	li := db.Table("lineitem").Schema()
	if len(li.ForeignKeys) != 3 {
		t.Errorf("lineitem FKs = %d, want 3", len(li.ForeignKeys))
	}
}

func TestGeneratedDataIsConsistent(t *testing.T) {
	gen, _ := smallDB(t)
	if issues := gen.db.CheckForeignKeys(); len(issues) != 0 {
		t.Fatalf("FK violations in generated data: %v", issues[:min(3, len(issues))])
	}
	// Every order has at least one line item (the running example holds).
	orders := gen.db.MustTable("orders")
	li := gen.db.MustTable("lineitem")
	bad := 0
	orders.Scan(func(r sqltypes.Row) bool {
		if len(li.LookupEqual([]int{0}, []sqltypes.Value{r[0]})) == 0 {
			bad++
		}
		return true
	})
	if bad != 0 {
		t.Errorf("%d orders without line items in generated data", bad)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestScaleShapes(t *testing.T) {
	s := ScaleGB(2)
	if s.Orders != 2*150000 || s.Label != "2GB" {
		t.Errorf("%+v", s)
	}
	tiny := ScaleOrders("t", 1)
	if tiny.Orders < 10 || tiny.Customers < 10 {
		t.Errorf("degenerate scale: %+v", tiny)
	}
}

func TestDeterminism(t *testing.T) {
	db1, g1, err := NewDatabase("a", ScaleOrders("tiny", 200), 99)
	if err != nil {
		t.Fatal(err)
	}
	db2, g2, err := NewDatabase("b", ScaleOrders("tiny", 200), 99)
	if err != nil {
		t.Fatal(err)
	}
	if db1.MustTable("lineitem").Len() != db2.MustTable("lineitem").Len() {
		t.Error("data generation not deterministic")
	}
	u1, err := g1.CleanUpdateMB(0) // 0MB still rounds up via target=0: empty
	if err != nil {
		t.Fatal(err)
	}
	_ = u1
	v1, err := g1.cleanUpdateRows("x", 100)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := g2.cleanUpdateRows("x", 100)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Rows() != v2.Rows() {
		t.Error("workloads not deterministic")
	}
}

func TestCleanUpdateCommits(t *testing.T) {
	gen, _ := smallDB(t)
	tool := core.New(gen.db, core.DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range ComplexityAssertions() {
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Fatalf("assertion: %v", err)
		}
	}
	for i := 0; i < 3; i++ {
		u, err := gen.cleanUpdateRows("tx", 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.Stage(gen.db); err != nil {
			t.Fatal(err)
		}
		res, err := tool.SafeCommit()
		if err != nil {
			t.Fatal(err)
		}
		if !res.Committed {
			for _, v := range res.Violations {
				t.Logf("violation: %s rows=%d", v.String(), len(v.Rows))
			}
			t.Fatalf("clean update %d rejected", i)
		}
	}
	// Database remains FK-consistent after three committed batches.
	if issues := gen.db.CheckForeignKeys(); len(issues) != 0 {
		t.Fatalf("FK violations after commits: %v", issues[:min(3, len(issues))])
	}
}

func TestViolatingUpdateRejected(t *testing.T) {
	gen, _ := smallDB(t)
	tool := core.New(gen.db, core.DefaultOptions())
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	if _, err := tool.AddAssertion(AssertionAtLeastOneLineItem); err != nil {
		t.Fatal(err)
	}
	u, err := gen.ViolatingUpdateMB(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Stage(gen.db); err != nil {
		t.Fatal(err)
	}
	res, err := tool.SafeCommit()
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed {
		t.Fatal("violating update committed")
	}
	total := 0
	for _, v := range res.Violations {
		total += len(v.Rows)
	}
	if total != 2 {
		t.Errorf("violating tuples = %d, want 2", total)
	}
}

func TestUpdateApplyDirectMatchesStageApply(t *testing.T) {
	db1, g1, err := NewDatabase("a", ScaleOrders("tiny", 300), 5)
	if err != nil {
		t.Fatal(err)
	}
	db2, g2, err := NewDatabase("b", ScaleOrders("tiny", 300), 5)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := g1.cleanUpdateRows("u", 150)
	if err != nil {
		t.Fatal(err)
	}
	u2, err := g2.cleanUpdateRows("u", 150)
	if err != nil {
		t.Fatal(err)
	}
	// Path 1: direct apply. Path 2: stage into events then ApplyEvents.
	if err := u1.ApplyDirect(db1); err != nil {
		t.Fatal(err)
	}
	db2.EnableCapture()
	if err := u2.Stage(db2); err != nil {
		t.Fatal(err)
	}
	if err := db2.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []string{"orders", "lineitem"} {
		if db1.MustTable(tbl).Len() != db2.MustTable(tbl).Len() {
			t.Errorf("%s: direct %d vs staged %d", tbl, db1.MustTable(tbl).Len(), db2.MustTable(tbl).Len())
		}
	}
}

func TestSingleTableUpdate(t *testing.T) {
	gen, _ := smallDB(t)
	u, err := gen.SingleTableUpdate("part", 10)
	if err != nil {
		t.Fatal(err)
	}
	if u.Rows() != 10 || len(u.Inserts["part"]) != 10 {
		t.Errorf("%+v", u)
	}
	if _, err := gen.SingleTableUpdate("lineitem", 1); err == nil {
		t.Error("unsupported table accepted")
	}
}

func TestPrewarmIndexes(t *testing.T) {
	gen, _ := smallDB(t)
	if err := gen.PrewarmIndexes(); err != nil {
		t.Fatal(err)
	}
	if !gen.db.MustTable("lineitem").HasIndexOn([]int{0}) {
		t.Error("lineitem l_orderkey index missing")
	}
}
