package sched_test

import (
	"reflect"
	"testing"

	"tintin/internal/engine"
	"tintin/internal/sched"
	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// TestPoolRunsEveryPlanShape: there is no plan the pool cannot clone. A
// view reading another view (directly and inside a subquery), a UNION and an
// aggregate run on a 2-worker pool over the frozen database — the
// view-on-view plan twice per run, so both workers execute clones of it at
// once — and every outcome equals Engine.QueryView, before and after the
// underlying table changes. Run under -race (make test-race).
func TestPoolRunsEveryPlanShape(t *testing.T) {
	db := storage.NewDB("pool")
	eng := engine.New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER);
		CREATE TABLE lineitem (l_orderkey INTEGER, l_linenumber INTEGER);
		INSERT INTO orders VALUES (1, 10), (2, 20), (3, 30), (4, 40);
		INSERT INTO lineitem VALUES (1, 1), (1, 2), (2, 1), (4, 1);
	`); err != nil {
		t.Fatal(err)
	}
	views := []struct{ name, sql string }{
		{"big", `SELECT o.o_orderkey FROM orders AS o WHERE o.o_custkey > 15`},
		{"on_view", `SELECT v.o_orderkey FROM big AS v, lineitem AS l WHERE l.l_orderkey = v.o_orderkey`},
		{"in_sub", `SELECT l.l_linenumber FROM lineitem AS l WHERE EXISTS (SELECT * FROM big AS v WHERE v.o_orderkey = l.l_orderkey)`},
		{"uni", `SELECT o.o_orderkey FROM orders AS o WHERE o.o_custkey < 25 UNION SELECT l.l_orderkey FROM lineitem AS l`},
		{"agg", `SELECT COUNT(*), MAX(l.l_orderkey) FROM lineitem AS l`},
	}
	for _, v := range views {
		sel, err := sqlparser.ParseSelect(v.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(v.name, sel); err != nil {
			t.Fatal(err)
		}
	}
	run := []string{"on_view", "in_sub", "uni", "agg", "on_view"}

	pool := sched.NewPool(2)
	for round := 0; round < 3; round++ {
		tasks := make([]sched.Task, len(run))
		want := make([]*engine.Result, len(run))
		for i, name := range run {
			p, err := eng.PrepareView(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.EnsureIndexes(); err != nil {
				t.Fatal(err)
			}
			tasks[i] = sched.Task{Plan: p}
			if want[i], err = eng.QueryView(name); err != nil {
				t.Fatal(err)
			}
		}
		db.Freeze()
		outs := pool.RunSpan(tasks, nil)
		db.Thaw()
		for i, out := range outs {
			if out.Err != nil {
				t.Fatalf("round %d, %s: %v", round, run[i], out.Err)
			}
			if len(want[i].Rows) == 0 {
				t.Fatalf("round %d, %s: reference result is empty; the test checks nothing", round, run[i])
			}
			if !reflect.DeepEqual(out.Rows, want[i].Rows) {
				t.Fatalf("round %d, %s: pool rows %v, QueryView rows %v", round, run[i], out.Rows, want[i].Rows)
			}
		}
		// Change what the inner view selects from; the next round's clones
		// (cached by the workers) must see it.
		k := int64(10 + round)
		if err := db.Insert("orders", sqltypes.Row{iv(k), iv(50)}); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert("lineitem", sqltypes.Row{iv(k), iv(7)}); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.PlanCacheStats(); st.Misses != 4 || st.Invalidations != 0 {
		t.Fatalf("plan cache = %+v, want the four run views compiled once each", st)
	}
}
