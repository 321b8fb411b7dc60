package engine

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// prepDB builds a two-table database with a join view and a subquery view.
func prepDB(t *testing.T) (*storage.DB, *Engine) {
	t.Helper()
	db := storage.NewDB("prep")
	eng := New(db)
	stmts := []string{
		`CREATE TABLE orders (o_orderkey INTEGER PRIMARY KEY, o_custkey INTEGER)`,
		`CREATE TABLE lineitem (l_orderkey INTEGER, l_linenumber INTEGER, l_quantity INTEGER)`,
	}
	for _, s := range stmts {
		if _, err := eng.ExecSQL(s); err != nil {
			t.Fatal(err)
		}
	}
	ins := func(table string, rows ...sqltypes.Row) {
		for _, r := range rows {
			if err := db.Insert(table, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	ins("orders", sqltypes.Row{iv(1), iv(10)}, sqltypes.Row{iv(2), iv(20)}, sqltypes.Row{iv(3), iv(30)})
	ins("lineitem",
		sqltypes.Row{iv(1), iv(1), iv(5)},
		sqltypes.Row{iv(1), iv(2), iv(7)},
		sqltypes.Row{iv(2), iv(1), iv(9)})
	return db, eng
}

func createView(t *testing.T, db *storage.DB, name, sql string) *sqlparser.Select {
	t.Helper()
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView(name, sel); err != nil {
		t.Fatal(err)
	}
	return sel
}

func sortedRows(rows []sqltypes.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestPreparedMatchesUnprepared runs the same view prepared and unprepared,
// before and after data changes, and demands identical results.
func TestPreparedMatchesUnprepared(t *testing.T) {
	db, eng := prepDB(t)
	sel := createView(t, db, "noline",
		`SELECT o.o_orderkey FROM orders AS o WHERE NOT EXISTS (
		   SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)`)

	check := func(label string) {
		t.Helper()
		fresh, err := eng.Query(sel) // plans from scratch
		if err != nil {
			t.Fatal(err)
		}
		prep, err := eng.QueryView("noline") // cached plan
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sortedRows(fresh.Rows), sortedRows(prep.Rows)) {
			t.Fatalf("%s: prepared %v != unprepared %v", label, sortedRows(prep.Rows), sortedRows(fresh.Rows))
		}
		if !reflect.DeepEqual(fresh.Columns, prep.Columns) {
			t.Fatalf("%s: prepared columns %v != unprepared %v", label, prep.Columns, fresh.Columns)
		}
	}

	check("initial") // order 3 has no line items
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("lineitem", sqltypes.Row{iv(3), iv(1), iv(2)}); err != nil {
		t.Fatal(err)
	}
	check("after insert") // now every order has line items
	db.MustTable("lineitem").DeleteRow(sqltypes.Row{iv(2), iv(1), iv(9)})
	check("after delete") // order 2 lost its only line item
	db.MustTable("lineitem").Truncate()
	check("after truncate") // all orders bare
}

// TestPlanCacheReuse verifies that repeated executions hit the cache and
// reuse the same compiled plan object.
func TestPlanCacheReuse(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o, lineitem AS l WHERE l.l_orderkey = o.o_orderkey`)

	p1, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	st := eng.PlanCacheStats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after first prepare: %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := eng.QueryView("v"); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache returned a different plan object")
	}
	st = eng.PlanCacheStats()
	if st.Misses != 1 {
		t.Fatalf("executions recompiled the plan: %+v", st)
	}
	if st.Hits != 4 {
		t.Fatalf("hits = %d, want 4 (3 queries + 1 prepare)", st.Hits)
	}
}

// TestPlanCacheInvalidation covers the three invalidation triggers: table-set
// change, view redefinition, and the index-probe toggle.
func TestPlanCacheInvalidation(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v", `SELECT o.o_orderkey FROM orders AS o`)

	p1, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}

	// Schema change: creating a table bumps the schema version.
	if _, err := eng.ExecSQL(`CREATE TABLE extra (x INTEGER)`); err != nil {
		t.Fatal(err)
	}
	p2, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatal("plan survived a schema change")
	}
	if st := eng.PlanCacheStats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}

	// View redefinition: plans are keyed by definition identity.
	if err := db.DropView("v"); err != nil {
		t.Fatal(err)
	}
	eng.ForgetPlan("v")
	createView(t, db, "v", `SELECT o.o_custkey FROM orders AS o`)
	p3, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p2 {
		t.Fatal("plan survived a view redefinition")
	}
	res, err := p3.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "o_custkey" {
		t.Fatalf("redefined view returned columns %v", res.Columns)
	}

	// Probe toggle: the plan shape depends on DisableIndexProbes.
	eng.DisableIndexProbes = true
	p4, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	if p4 == p3 {
		t.Fatal("plan survived an index-probe toggle")
	}
}

// TestPreparedViewOnView: a view reading another view compiles like any
// other — executions are cache hits, each one re-reads the underlying table
// through the nested plan, a clone is an independent copy, and redefining the
// inner view invalidates the outer plan.
func TestPreparedViewOnView(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "base_v", `SELECT o.o_orderkey FROM orders AS o WHERE o.o_custkey > 15`)
	createView(t, db, "outer_v", `SELECT v.o_orderkey FROM base_v AS v WHERE v.o_orderkey > 2`)

	query := func(label string, want ...string) {
		t.Helper()
		res, err := eng.QueryView("outer_v")
		if err != nil {
			t.Fatal(err)
		}
		if got := sortedRows(res.Rows); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: rows = %v, want %v", label, got, want)
		}
	}
	query("initial", "(3)")
	proto, err := eng.PrepareView("outer_v")
	if err != nil {
		t.Fatal(err)
	}
	clone := proto.Clone()
	if clone == proto {
		t.Fatal("Clone returned the shared plan")
	}
	// No stale materialization: the nested plan runs on every execution.
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("orders", sqltypes.Row{iv(9), iv(90)}); err != nil {
		t.Fatal(err)
	}
	query("after insert", "(3)", "(9)")
	if st := eng.PlanCacheStats(); st.Misses != 1 || st.Hits != 2 || st.Invalidations != 0 {
		t.Fatalf("stats = %+v, want one compile and two hits", st)
	}
	// The clone was taken before the insert and has never run; it sees the
	// same data through its own copy of the nested plan.
	res, err := clone.Query()
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res.Rows); !reflect.DeepEqual(got, []string{"(3)", "(9)"}) {
		t.Fatalf("clone rows = %v", got)
	}
	if clone.branches[0].scope.srcs[0] == proto.branches[0].scope.srcs[0] {
		t.Fatal("clone shares the prototype's view source (per-execution state)")
	}

	// Redefining the inner view invalidates the outer plan.
	if err := db.DropView("base_v"); err != nil {
		t.Fatal(err)
	}
	createView(t, db, "base_v", `SELECT o.o_orderkey FROM orders AS o WHERE o.o_custkey > 25`)
	query("after redefinition", "(3)", "(9)")
	p2, err := eng.PrepareView("outer_v")
	if err != nil {
		t.Fatal(err)
	}
	if p2 == proto {
		t.Fatal("outer plan survived the redefinition of the view it reads")
	}
	if st := eng.PlanCacheStats(); st.Invalidations != 1 {
		t.Fatalf("invalidations = %d, want 1", st.Invalidations)
	}
}

// TestViewBodyIsClosed: a view is compiled with no outer scope, so a body
// that references a column of the query reading it is an error wherever the
// view is used — not a correlation that happens to resolve.
func TestViewBodyIsClosed(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "leaky", `SELECT l.l_orderkey FROM lineitem l WHERE l.l_orderkey = o.o_orderkey`)
	for _, q := range []string{
		`SELECT * FROM leaky`,
		`SELECT o.o_orderkey FROM orders o WHERE EXISTS (SELECT * FROM leaky)`,
	} {
		_, err := eng.QuerySQL(q)
		if err == nil || !strings.Contains(err.Error(), "unknown table or alias o") {
			t.Errorf("%s: err = %v, want unknown table or alias o", q, err)
		}
	}
}

// TestPreparedNonEmpty exercises the early-exit path of a cached plan.
func TestPreparedNonEmpty(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o WHERE NOT EXISTS (
		   SELECT * FROM lineitem AS l WHERE l.l_orderkey = o.o_orderkey)`)
	ne, err := eng.ViewNonEmpty("v")
	if err != nil {
		t.Fatal(err)
	}
	if !ne {
		t.Fatal("order 3 has no line items; view should be non-empty")
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("lineitem", sqltypes.Row{iv(3), iv(1), iv(1)}); err != nil {
		t.Fatal(err)
	}
	ne, err = eng.ViewNonEmpty("v")
	if err != nil {
		t.Fatal(err)
	}
	if ne {
		t.Fatal("all orders have line items; view should be empty")
	}
}

// TestPreparedInSubqueryMemoReset guards the subtlest piece of plan reuse:
// the uncorrelated-IN memo must be dropped between executions so a cached
// plan sees current data.
func TestPreparedInSubqueryMemoReset(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o WHERE o.o_orderkey NOT IN (
		   SELECT l.l_orderkey FROM lineitem AS l)`)
	res, err := eng.QueryView("v")
	if err != nil {
		t.Fatal(err)
	}
	if got := sortedRows(res.Rows); !reflect.DeepEqual(got, []string{"(3)"}) {
		t.Fatalf("rows = %v, want [(3)]", got)
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	if err := db.Insert("lineitem", sqltypes.Row{iv(3), iv(1), iv(1)}); err != nil {
		t.Fatal(err)
	}
	res, err = eng.QueryView("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %v, want none (memo not reset?)", res.Rows)
	}
}

// TestPlanCacheStatsConcurrentReads pins the satellite fix for the latent
// data race: stats readers polling PlanCacheStats from other goroutines
// while the coordinator drives the prepare path. Run under -race.
func TestPlanCacheStatsConcurrentReads(t *testing.T) {
	db, eng := prepDB(t)
	createView(t, db, "v",
		`SELECT o.o_orderkey FROM orders AS o, lineitem AS l WHERE l.l_orderkey = o.o_orderkey`)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = eng.PlanCacheStats()
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := eng.PrepareView("v"); err != nil {
			t.Fatal(err)
		}
	}
	eng.InvalidatePlans()
	if _, err := eng.PrepareView("v"); err != nil {
		t.Fatal(err)
	}
	close(stop)
	<-done
	st := eng.PlanCacheStats()
	if st.Hits != 199 || st.Misses != 2 || st.Invalidations != 1 {
		t.Fatalf("stats after concurrent reads: %+v", st)
	}
}
