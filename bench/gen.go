package main

import (
	"fmt"
	"math/rand"
	"strings"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
	"tintin/internal/tpch"
)

// liveOrder is the generator's record of one order currently in the
// database: its row, its line-item rows, and the next free line number.
type liveOrder struct {
	row      sqltypes.Row
	lines    []sqltypes.Row
	nextLine int
}

// generator produces the balanced update stream of every workload from a
// seed and its own model of the orders/lineitem tables; it never reads the
// database after newGenerator, so two tools fed the same seed receive
// byte-identical batches whatever they do with them.
//
// Live order keys are always the contiguous range [firstKey, nextKey):
// new orders take nextKey, deletes remove the oldest. That is what lets the
// SQL workload express a batch's deletes as two range DELETEs.
type generator struct {
	rng      *rand.Rand
	scale    tpch.Scale
	live     []liveOrder // live[i] has key firstKey+i
	firstKey int
	nextKey  int
	// lineitems is the model's lineitem row count; orders is len(live).
	lineitems int
}

// newGenerator builds the model from a freshly populated database. It
// copies the rows, as it will own the rows it generates later, so the
// model's memory is the same at the first transaction as at the last.
func newGenerator(db *storage.DB, scale tpch.Scale, seed int64) *generator {
	g := &generator{
		rng:   rand.New(rand.NewSource(seed)),
		scale: scale,
		live:  make([]liveOrder, 0, 2*scale.Orders),
	}
	db.MustTable("orders").Scan(func(r sqltypes.Row) bool {
		g.live = append(g.live, liveOrder{row: r.Clone(), nextLine: 1})
		return true
	})
	db.MustTable("lineitem").Scan(func(r sqltypes.Row) bool {
		o := &g.live[r[0].Int()]
		o.lines = append(o.lines, r.Clone())
		o.nextLine++
		g.lineitems++
		return true
	})
	g.nextKey = len(g.live)
	return g
}

// batch is one generated update: what a session proposes before calling
// safeCommit, plus what the generator expects the system to answer.
type batch struct {
	insOrders, insLines []sqltypes.Row
	delOrders, delLines []sqltypes.Row
	// pairs are lineitem rows staged as both an insertion and a deletion;
	// NormalizeEvents must cancel each one.
	pairs []sqltypes.Row
	// delFrom/delTo is the deleted order-key range [from, to).
	delFrom, delTo int
	// violating batches insert orders without line items and must be
	// rejected with one violation row per such order.
	violating int
}

// rows is the number of event rows the batch hands to the system.
func (b *batch) rows() int {
	return len(b.insOrders) + len(b.insLines) + len(b.delOrders) + len(b.delLines) + 2*len(b.pairs)
}

func ival(i int) sqltypes.Value { return sqltypes.NewInt(int64(i)) }

func (g *generator) lineRow(key, line int) sqltypes.Row {
	return sqltypes.Row{ival(key), ival(line), ival(g.rng.Intn(g.scale.Parts)),
		ival(g.rng.Intn(g.scale.Suppliers)), ival(1 + g.rng.Intn(50))}
}

// next generates a balanced batch of about target event rows and advances
// the model as if it committed. With n new orders a batch holds n orders
// with 1–3 line items (3n rows on average), n/2 extra line items, and the n
// oldest orders with all their line items (3.5n rows) — 7n rows in all, as
// many deleted as inserted.
//
// Extras go to the youngest tenth of the live orders only. An order thus
// collects its 0.5 extras early and then holds 2.5 line items on average
// until it is deleted — what the tpch populator gives every order it
// creates. So the stream is stationary from the first transaction: the
// orders deleted today look like the ones deleted after a full turnover,
// and batch and table sizes stay where they started.
func (g *generator) next(target int, withPairs bool) *batch {
	n := target / 7
	if n < 1 {
		n = 1
	}
	b := &batch{delFrom: g.firstKey, delTo: g.firstKey + n}
	for i, o := range g.live[:n] {
		b.delOrders = append(b.delOrders, o.row)
		b.delLines = append(b.delLines, o.lines...)
		g.lineitems -= len(o.lines)
		g.live[i] = liveOrder{} // the array outlives the reslice; let the rows go
	}
	g.live = g.live[n:]
	g.firstKey += n
	if cap(g.live) < len(g.live)+n {
		// Slide the queue back to the front of a fresh array.
		g.live = append(make([]liveOrder, 0, 2*len(g.live)), g.live...)
	}

	for i := 0; i < n; i++ {
		key := g.nextKey
		g.nextKey++
		nl := 1 + g.rng.Intn(3)
		o := liveOrder{nextLine: nl + 1}
		price := 0.0
		for ln := 1; ln <= nl; ln++ {
			r := g.lineRow(key, ln)
			price += float64(r[4].Int()) * 10
			o.lines = append(o.lines, r)
		}
		o.row = sqltypes.Row{ival(key), ival(g.rng.Intn(g.scale.Customers)), sqltypes.NewFloat(price)}
		b.insOrders = append(b.insOrders, o.row)
		b.insLines = append(b.insLines, o.lines...)
		g.lineitems += nl
		g.live = append(g.live, o)
	}

	extras := n / 2
	if n%2 == 1 {
		extras += g.rng.Intn(2)
	}
	young := g.live[len(g.live)-len(g.live)/10:]
	for i := 0; i < extras; i++ {
		o := &young[g.rng.Intn(len(young))]
		r := g.lineRow(int(o.row[0].Int()), o.nextLine)
		o.nextLine++
		o.lines = append(o.lines, r)
		b.insLines = append(b.insLines, r)
		g.lineitems++
	}

	if withPairs {
		// 1% of the rows, at least one pair, never enter the model.
		for i := 0; i < 1+target/200; i++ {
			o := &g.live[g.rng.Intn(len(g.live))]
			b.pairs = append(b.pairs, g.lineRow(int(o.row[0].Int()), o.nextLine))
			o.nextLine++
		}
	}
	return b
}

// violation generates a batch of k orders without line items. The model
// does not advance: the system must reject it.
func (g *generator) violation(k int) *batch {
	b := &batch{violating: k, delFrom: g.firstKey, delTo: g.firstKey}
	for i := 0; i < k; i++ {
		b.insOrders = append(b.insOrders,
			sqltypes.Row{ival(g.nextKey + i), ival(g.rng.Intn(g.scale.Customers)), sqltypes.NewFloat(0)})
	}
	return b
}

// update renders the batch as the event-table load tpch.Update.Stage takes.
func (b *batch) update() *tpch.Update {
	u := tpch.NewUpdate("bench")
	u.Inserts["orders"] = b.insOrders
	u.Inserts["lineitem"] = append(append([]sqltypes.Row(nil), b.insLines...), b.pairs...)
	u.Deletes["orders"] = b.delOrders
	u.Deletes["lineitem"] = append(append([]sqltypes.Row(nil), b.delLines...), b.pairs...)
	return u
}

// sqlTuplesPerInsert is the VALUES-list length of the SQL workload's
// multi-row INSERT statements.
const sqlTuplesPerInsert = 100

// sql renders the batch as the script a cmd/tintin user would send:
// multi-row INSERTs, two range DELETEs (line items, then orders) and
// CALL safeCommit. Pairs have no SQL form — a DELETE only sees base rows.
func (b *batch) sql() string {
	var sb strings.Builder
	inserts := func(table string, rows []sqltypes.Row) {
		for i, r := range rows {
			switch {
			case i%sqlTuplesPerInsert == 0:
				if i > 0 {
					sb.WriteString(";\n")
				}
				fmt.Fprintf(&sb, "INSERT INTO %s VALUES ", table)
			default:
				sb.WriteString(", ")
			}
			sb.WriteByte('(')
			for j, v := range r {
				if j > 0 {
					sb.WriteString(", ")
				}
				if v.Kind() == sqltypes.KindFloat {
					fmt.Fprintf(&sb, "%.1f", v.Float())
				} else {
					fmt.Fprintf(&sb, "%d", v.Int())
				}
			}
			sb.WriteByte(')')
		}
		if len(rows) > 0 {
			sb.WriteString(";\n")
		}
	}
	inserts("orders", b.insOrders)
	inserts("lineitem", b.insLines)
	if b.delTo > b.delFrom {
		fmt.Fprintf(&sb, "DELETE FROM lineitem WHERE l_orderkey >= %d AND l_orderkey < %d;\n", b.delFrom, b.delTo)
		fmt.Fprintf(&sb, "DELETE FROM orders WHERE o_orderkey >= %d AND o_orderkey < %d;\n", b.delFrom, b.delTo)
	}
	sb.WriteString("CALL safeCommit;\n")
	return sb.String()
}
