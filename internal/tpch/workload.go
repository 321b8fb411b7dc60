package tpch

import (
	"fmt"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// Update is a batch of tuple insertions and deletions, the unit of the
// paper's experiments ("1 MB to 5 MB of tuple insertions/deletions").
type Update struct {
	Label   string
	Inserts map[string][]sqltypes.Row // table -> rows
	Deletes map[string][]sqltypes.Row
}

// NewUpdate returns an empty update batch.
func NewUpdate(label string) *Update {
	return &Update{
		Label:   label,
		Inserts: make(map[string][]sqltypes.Row),
		Deletes: make(map[string][]sqltypes.Row),
	}
}

// Rows returns the total number of tuples in the batch.
func (u *Update) Rows() int {
	n := 0
	for _, rs := range u.Inserts {
		n += len(rs)
	}
	for _, rs := range u.Deletes {
		n += len(rs)
	}
	return n
}

// Stage loads the batch into the database's event tables (the state the
// paper's INSTEAD OF triggers produce just before safeCommit runs).
func (u *Update) Stage(db *storage.DB) error {
	for table, rows := range u.Inserts {
		t := db.Table(storage.InsTable(table))
		if t == nil {
			return fmt.Errorf("tpch: no event table for %s (tool not installed?)", table)
		}
		for _, r := range rows {
			if err := t.Insert(r.Clone()); err != nil {
				return err
			}
		}
	}
	for table, rows := range u.Deletes {
		t := db.Table(storage.DelTable(table))
		if t == nil {
			return fmt.Errorf("tpch: no event table for %s (tool not installed?)", table)
		}
		for _, r := range rows {
			if err := t.Insert(r.Clone()); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyDirect applies the batch straight to the base tables (no capture):
// used to build the baseline's post-state and to advance the database
// between experiment repetitions.
func (u *Update) ApplyDirect(db *storage.DB) error {
	for table, rows := range u.Deletes {
		t := db.MustTable(table)
		for _, r := range rows {
			t.DeleteRow(r)
		}
	}
	for table, rows := range u.Inserts {
		t := db.MustTable(table)
		for _, r := range rows {
			if err := t.Insert(r.Clone()); err != nil {
				return err
			}
		}
	}
	return nil
}

// CleanUpdateMB builds an update batch of roughly mb megabytes (RowsPerMB
// rows each) that satisfies the running-example assertion and the FK-shaped
// assertions: a mix of new orders with line items, extra line items for
// existing orders, and deletions of whole orders together with their line
// items. Deterministic given the generator's RNG state.
func (g *Generator) CleanUpdateMB(mb int) (*Update, error) {
	return g.cleanUpdateRows(fmt.Sprintf("%dMB", mb), mb*RowsPerMB)
}

// CleanUpdate builds a clean batch of exactly rows tuples, for harness
// configurations that scale the update together with the data so the
// update:data proportion matches the paper's regardless of absolute scale.
func (g *Generator) CleanUpdate(label string, rows int) (*Update, error) {
	return g.cleanUpdateRows(label, rows)
}

func (g *Generator) cleanUpdateRows(label string, target int) (*Update, error) {
	u := NewUpdate(label)
	lineitems := g.db.MustTable("lineitem")
	liOffs := []int{0} // l_orderkey index
	// Keep the batch self-consistent: never insert a line item for an order
	// deleted in this batch, and never delete an order that received new
	// line items in this batch.
	extended := map[int]bool{}
	deleted := map[int]bool{}

	for u.Rows() < target {
		switch g.rng.Intn(10) {
		case 0, 1, 2, 3, 4, 5:
			g.newOrder(u)

		case 6, 7:
			// Extra line item for an existing order.
			o := g.rng.Intn(g.scale.Orders)
			if deleted[o] || len(g.db.MustTable("orders").LookupEqual([]int{0}, []sqltypes.Value{ival(o)})) == 0 {
				continue
			}
			extended[o] = true
			ln := g.nextLineNum[o]
			if ln == 0 {
				ln = 100
			}
			g.nextLineNum[o] = ln + 1
			u.Inserts["lineitem"] = append(u.Inserts["lineitem"],
				sqltypes.Row{ival(o), ival(ln), ival(g.rng.Intn(g.scale.Parts)), ival(g.rng.Intn(g.scale.Suppliers)), ival(1 + g.rng.Intn(50))})

		default:
			// Delete an existing order together with all its line items.
			o := g.rng.Intn(g.scale.Orders)
			if deleted[o] || extended[o] {
				continue
			}
			rows := lineitems.LookupEqual(liOffs, []sqltypes.Value{ival(o)})
			if len(rows) == 0 {
				continue // already deleted in an applied batch
			}
			ordRows := g.db.MustTable("orders").LookupEqual([]int{0}, []sqltypes.Value{ival(o)})
			if len(ordRows) == 0 {
				continue
			}
			deleted[o] = true
			u.Deletes["orders"] = append(u.Deletes["orders"], ordRows[0].Clone())
			for _, r := range rows {
				u.Deletes["lineitem"] = append(u.Deletes["lineitem"], r.Clone())
			}
		}
	}
	return u, nil
}

// newOrder adds a new order with 1-3 line items to the batch.
func (g *Generator) newOrder(u *Update) {
	o := g.nextOrderKey
	g.nextOrderKey++
	nl := 1 + g.rng.Intn(3)
	price := 0.0
	for ln := 1; ln <= nl; ln++ {
		qty := 1 + g.rng.Intn(50)
		price += float64(qty) * 10
		u.Inserts["lineitem"] = append(u.Inserts["lineitem"],
			sqltypes.Row{ival(o), ival(ln), ival(g.rng.Intn(g.scale.Parts)), ival(g.rng.Intn(g.scale.Suppliers)), ival(qty)})
	}
	u.Inserts["orders"] = append(u.Inserts["orders"],
		sqltypes.Row{ival(o), ival(g.rng.Intn(g.scale.Customers)), fval(price)})
}

// BalancedUpdate builds a clean batch of about rows tuples, half of them
// deletions: whole orders with all their line items, oldest key first,
// against new orders with 1-3 line items each. This is the steady-state
// shape — the tables neither grow nor shrink — and the one in which every
// new-state subtraction T ∧ ¬del_T of the incremental views has work to do.
func (g *Generator) BalancedUpdate(label string, rows int) (*Update, error) {
	u := NewUpdate(label)
	orders, lineitems := g.db.MustTable("orders"), g.db.MustTable("lineitem")
	for o := 0; u.Rows() < rows/2; o++ {
		if o >= g.nextOrderKey {
			return nil, fmt.Errorf("tpch: not enough orders to delete %d rows", rows/2)
		}
		key := []sqltypes.Value{ival(o)}
		ord := orders.LookupEqual([]int{0}, key)
		if len(ord) == 0 {
			continue // deleted by an earlier, applied batch
		}
		u.Deletes["orders"] = append(u.Deletes["orders"], ord[0])
		u.Deletes["lineitem"] = append(u.Deletes["lineitem"], lineitems.LookupEqual([]int{0}, key)...)
	}
	for u.Rows() < rows {
		g.newOrder(u)
	}
	return u, nil
}

// ViolatingUpdateMB builds a batch like CleanUpdateMB but with nViolations
// orders inserted without any line item — each one a violation of the
// paper's atLeastOneLineItem assertion.
func (g *Generator) ViolatingUpdateMB(mb, nViolations int) (*Update, error) {
	return g.ViolatingUpdate(fmt.Sprintf("%dMB+bad", mb), mb*RowsPerMB, nViolations)
}

// ViolatingUpdate is the row-count form of ViolatingUpdateMB.
func (g *Generator) ViolatingUpdate(label string, rows, nViolations int) (*Update, error) {
	u, err := g.cleanUpdateRows(label, rows-nViolations)
	if err != nil {
		return nil, err
	}
	for i := 0; i < nViolations; i++ {
		o := g.nextOrderKey
		g.nextOrderKey++
		u.Inserts["orders"] = append(u.Inserts["orders"],
			sqltypes.Row{ival(o), ival(g.rng.Intn(g.scale.Customers)), fval(0)})
	}
	return u, nil
}

// SingleTableUpdate builds a batch touching only the given table with
// insertions — used by E3 to show that unrelated assertions are skipped.
func (g *Generator) SingleTableUpdate(table string, rows int) (*Update, error) {
	u := NewUpdate(fmt.Sprintf("%s-only", table))
	switch table {
	case "part":
		for i := 0; i < rows; i++ {
			key := g.scale.Parts + 1000000 + i
			u.Inserts["part"] = append(u.Inserts["part"], sqltypes.Row{ival(key), sval(fmt.Sprintf("Part#%09d", key))})
		}
	case "customer":
		for i := 0; i < rows; i++ {
			key := g.scale.Customers + 1000000 + i
			u.Inserts["customer"] = append(u.Inserts["customer"],
				sqltypes.Row{ival(key), sval(fmt.Sprintf("Customer#%09d", key)), ival(g.rng.Intn(g.scale.Nations))})
		}
	default:
		return nil, fmt.Errorf("tpch: SingleTableUpdate does not support %s", table)
	}
	return u, nil
}

// Assertions used across the experiments, in rough order of complexity —
// the paper's "assertions of different complexity".
var (
	// AssertionAtLeastOneLineItem is the paper's running example.
	AssertionAtLeastOneLineItem = `CREATE ASSERTION atLeastOneLineItem CHECK(
  NOT EXISTS(
    SELECT * FROM orders AS o
    WHERE NOT EXISTS (
      SELECT * FROM lineitem AS l
      WHERE l.l_orderkey = o.o_orderkey)))`

	// AssertionPositiveQuantity: single-table domain constraint.
	AssertionPositiveQuantity = `CREATE ASSERTION positiveQuantity CHECK(
  NOT EXISTS (SELECT * FROM lineitem AS l WHERE l.l_quantity <= 0))`

	// AssertionPositiveAvailQty: single-table domain constraint on partsupp.
	AssertionPositiveAvailQty = `CREATE ASSERTION positiveAvailQty CHECK(
  NOT EXISTS (SELECT * FROM partsupp AS ps WHERE ps.ps_availqty < 0))`

	// AssertionLineItemHasOrder: referential condition lineitem → orders.
	AssertionLineItemHasOrder = `CREATE ASSERTION lineItemHasOrder CHECK(
  NOT EXISTS (
    SELECT * FROM lineitem AS l
    WHERE NOT EXISTS (SELECT * FROM orders AS o WHERE o.o_orderkey = l.l_orderkey)))`

	// AssertionOrderHasCustomer: referential condition orders → customer,
	// phrased with NOT IN for variety.
	AssertionOrderHasCustomer = `CREATE ASSERTION orderHasCustomer CHECK(
  NOT EXISTS (
    SELECT * FROM orders AS o
    WHERE o.o_custkey NOT IN (SELECT c.c_custkey FROM customer AS c)))`

	// AssertionSupplierSellsSomething: every supplier appears in partsupp.
	AssertionSupplierSellsSomething = `CREATE ASSERTION supplierSellsSomething CHECK(
  NOT EXISTS (
    SELECT * FROM supplier AS s
    WHERE NOT EXISTS (SELECT * FROM partsupp AS ps WHERE ps.ps_suppkey = s.s_suppkey)))`

	// AssertionCustomerNationInRegion: three-table chain — every customer's
	// nation must belong to some region (complex NOT EXISTS: join inside).
	AssertionCustomerNationInRegion = `CREATE ASSERTION customerNationInRegion CHECK(
  NOT EXISTS (
    SELECT * FROM customer AS c
    WHERE NOT EXISTS (
      SELECT * FROM nation AS n, region AS r
      WHERE n.n_nationkey = c.c_nationkey AND r.r_regionkey = n.n_regionkey)))`
)

// AggregateAssertions returns the two aggregate assertions of E5 — the
// extension the paper names as future work (§5): a COUNT and a SUM condition
// per order, checked incrementally.
func AggregateAssertions() []string {
	return []string{
		`CREATE ASSERTION atMostTwentyLineItems CHECK(
  NOT EXISTS (
    SELECT * FROM orders AS o
    WHERE (SELECT COUNT(*) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) > 20))`,
		`CREATE ASSERTION totalQuantityCap CHECK(
  NOT EXISTS (
    SELECT * FROM orders AS o
    WHERE (SELECT SUM(l.l_quantity) FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey) > 100000))`,
	}
}

// ComplexityAssertions returns the E2 assertion suite in increasing
// complexity order.
func ComplexityAssertions() []string {
	return []string{
		AssertionPositiveQuantity,
		AssertionPositiveAvailQty,
		AssertionOrderHasCustomer,
		AssertionLineItemHasOrder,
		AssertionAtLeastOneLineItem,
		AssertionSupplierSellsSomething,
		AssertionCustomerNationInRegion,
	}
}
