package core_test

import (
	"fmt"
	"testing"

	"tintin/internal/core"
	"tintin/internal/core/coretest"
	"tintin/internal/engine"
	"tintin/internal/sqlparser"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// The schemas and assertions of examples/quickstart and examples/inventory
// (examples/banking is coretest's fixture, examples/tpch is the tpch package).
const (
	quickstartSchema = `
		CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_totalprice REAL);
		CREATE TABLE lineitem (
			l_orderkey INTEGER NOT NULL, l_linenumber INTEGER NOT NULL, l_quantity INTEGER,
			PRIMARY KEY (l_orderkey, l_linenumber),
			FOREIGN KEY (l_orderkey) REFERENCES orders (o_orderkey));`
	inventorySchema = `
		CREATE TABLE product (p_id INTEGER PRIMARY KEY, p_name VARCHAR NOT NULL, p_active BOOLEAN);
		CREATE TABLE warehouse (w_id INTEGER PRIMARY KEY, w_city VARCHAR NOT NULL);
		CREATE TABLE stock (
			s_product INTEGER NOT NULL, s_warehouse INTEGER NOT NULL, s_units INTEGER NOT NULL,
			PRIMARY KEY (s_product, s_warehouse),
			FOREIGN KEY (s_product) REFERENCES product (p_id),
			FOREIGN KEY (s_warehouse) REFERENCES warehouse (w_id));
		CREATE TABLE shipment (
			sh_id INTEGER PRIMARY KEY, sh_product INTEGER NOT NULL,
			sh_warehouse INTEGER NOT NULL, sh_units INTEGER NOT NULL);`
)

var inventoryAssertions = []string{
	`CREATE ASSERTION nonNegativeStock CHECK (
		NOT EXISTS (SELECT * FROM stock AS s WHERE s.s_units < 0))`,
	`CREATE ASSERTION activeProductStocked CHECK (
		NOT EXISTS (
			SELECT * FROM product AS p
			WHERE p.p_active = TRUE
			  AND NOT EXISTS (SELECT * FROM stock AS s WHERE s.s_product = p.p_id)))`,
	`CREATE ASSERTION shipmentHasStockRecord CHECK (
		NOT EXISTS (
			SELECT * FROM shipment AS sh
			WHERE NOT EXISTS (
				SELECT * FROM stock AS s
				WHERE s.s_product = sh.sh_product AND s.s_warehouse = sh.sh_warehouse)))`,
}

func installedTool(t *testing.T, db *storage.DB, schema string, assertions []string) *core.Tool {
	t.Helper()
	tool := core.New(db, core.DefaultOptions())
	if schema != "" {
		if _, err := tool.Engine().ExecSQL(schema); err != nil {
			t.Fatal(err)
		}
	}
	if err := tool.Install(); err != nil {
		t.Fatal(err)
	}
	for _, sql := range assertions {
		if _, err := tool.AddAssertion(sql); err != nil {
			t.Fatal(err)
		}
	}
	return tool
}

// probeableFilter reports whether a residual filter of the source aliased
// alias is an equality — plain or NULL-safe — between a bare column of that
// source and an expression that does not mention it: the conjunct shape an
// index answers. Left as a filter on a scanned source, it makes the join
// quadratic.
func probeableFilter(t *testing.T, filter, alias string) bool {
	t.Helper()
	e, err := sqlparser.ParseExpr(filter)
	if err != nil {
		t.Fatalf("explain printed a filter that does not parse: %q: %v", filter, err)
	}
	var l, r sqlparser.Expr
	if b, ok := e.(*sqlparser.Binary); ok && b.Op == sqlparser.OpEq {
		l, r = b.L, b.R
	} else if a, b, ok := sqlparser.NullSafeEquality(e); ok {
		l, r = a, b
	} else {
		return false
	}
	mentions := func(e sqlparser.Expr) bool {
		found := false
		sqlparser.WalkExpr(e, func(n sqlparser.Expr) bool {
			if cr, ok := n.(*sqlparser.ColumnRef); ok && cr.Qualifier == alias {
				found = true
			}
			return !found
		})
		return found
	}
	for _, side := range [2][2]sqlparser.Expr{{l, r}, {r, l}} {
		if cr, ok := side[0].(*sqlparser.ColumnRef); ok && cr.Qualifier == alias && !mentions(side[1]) {
			return true
		}
	}
	return false
}

// planShape walks one explained branch and its subplans. Every source but
// the top-level branch's level-0 source (the one scan that drives the view)
// sits inside a join or a correlated subquery: it is visited once per outer
// row, so a scan of it with a probe-able filter is a quadratic plan.
type planShape struct {
	t              *testing.T
	db             *storage.DB
	view           string
	inner, probed  int // sources below the driving one; those among them probed
	nullSafeProbes int
}

func (w *planShape) branch(br engine.ExplainBranch, top bool) {
	for k, src := range br.Sources {
		if top && k == 0 {
			continue
		}
		w.inner++
		if src.Access == "probe" {
			w.probed++
			for _, ns := range src.ProbeNullSafe {
				if ns {
					w.nullSafeProbes++
				}
			}
			continue
		}
		if w.db.Table(src.Table) == nil {
			continue // a view's output has no index to probe
		}
		for _, f := range src.Filters {
			if probeableFilter(w.t, f, src.Alias) {
				w.t.Errorf("%s: %s AS %s is scanned once per outer row although %q could probe an index",
					w.view, src.Table, src.Alias, f)
			}
		}
	}
	for _, sq := range br.Subplans {
		for _, sub := range sq.Branches {
			w.branch(sub, false)
		}
	}
}

// TestInstalledViewsNeverScanInsideJoins keeps the commit check linear in
// the update without timing anything: over every incremental view of the
// TPC-H assertion suite, the two aggregate assertions and the example
// schemas, no table below a view's driving source is scanned while one of
// its filters is an equality the planner could have answered with an index.
func TestInstalledViewsNeverScanInsideJoins(t *testing.T) {
	tpchDB, _, err := tpch.NewDatabase("tpc", tpch.ScaleOrders("tiny", 50), 1)
	if err != nil {
		t.Fatal(err)
	}
	tools := []struct {
		schema string
		tool   *core.Tool
	}{
		{"tpch", installedTool(t, tpchDB, "",
			append(tpch.ComplexityAssertions(), tpch.AggregateAssertions()...))},
		{"quickstart", installedTool(t, storage.NewDB("shop"), quickstartSchema,
			[]string{tpch.AssertionAtLeastOneLineItem})},
		{"inventory", installedTool(t, storage.NewDB("warehouse"), inventorySchema, inventoryAssertions)},
		{"banking", coretest.NewBankTool(t, 1)},
	}
	nullSafe := map[string]int{}
	for _, tc := range tools {
		schema, tool := tc.schema, tc.tool
		for _, a := range tool.Assertions() {
			ex, err := tool.Explain(a.Name)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ex.Views {
				w := &planShape{t: t, db: tool.DB(), view: fmt.Sprintf("%s/%s", schema, v.View)}
				for _, br := range v.Branches {
					w.branch(br, true)
				}
				nullSafe[w.view] = w.nullSafeProbes
				// The two views ISSUE 13 measured: everything below the
				// driving source is a probe.
				if schema == "tpch" && (v.View == "atleastonelineitem2" || v.View == "lineitemhasorder3") {
					if w.inner == 0 || w.probed != w.inner {
						t.Errorf("%s: %d of %d sources below the driving one are probed", w.view, w.probed, w.inner)
					}
				}
			}
		}
	}
	// The guard must not be vacuous: the new-state subtraction T ∧ ¬del_T is
	// there, and it is a NULL-safe probe.
	for _, v := range []string{"tpch/atleastonelineitem2", "tpch/lineitemhasorder3", "quickstart/atleastonelineitem2"} {
		if nullSafe[v] == 0 {
			t.Errorf("%s has no NULL-safe probe: the del_* anti-join is missing or is not probed", v)
		}
	}
}
