package engine

import (
	"reflect"
	"testing"

	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// partDB builds a database whose driving table has tombstoned slots (ragged
// live layout) plus a probed side table, mirroring the shape of an
// incremental view: small event scan driving index probes.
func partDB(t *testing.T) (*storage.DB, *Engine) {
	t.Helper()
	db := storage.NewDB("part")
	eng := New(db)
	stmts := []string{
		`CREATE TABLE ev (e_key INTEGER, e_val INTEGER)`,
		`CREATE TABLE base (b_key INTEGER PRIMARY KEY, b_ok BOOLEAN)`,
	}
	for _, s := range stmts {
		if _, err := eng.ExecSQL(s); err != nil {
			t.Fatal(err)
		}
	}
	iv := func(n int64) sqltypes.Value { return sqltypes.NewInt(n) }
	for i := int64(0); i < 23; i++ {
		if err := db.Insert("ev", sqltypes.Row{iv(i % 7), iv(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 7; i++ {
		if err := db.Insert("base", sqltypes.Row{iv(i), sqltypes.NewBool(i%2 == 0)}); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone every fifth ev slot so partitions straddle holes.
	if _, err := db.DeleteWhere("ev", func(r sqltypes.Row) bool {
		return r[1].Int()%5 == 0
	}); err != nil {
		t.Fatal(err)
	}
	return db, eng
}

// TestPartitionedExecutionParity: for every k, concatenating the partition
// executions of a probing join view in range order must reproduce the whole
// execution exactly — rows, order and columns — over a ragged driving table.
func TestPartitionedExecutionParity(t *testing.T) {
	db, eng := partDB(t)
	createView(t, db, "v",
		`SELECT e.e_val FROM ev AS e, base AS b WHERE b.b_key = e.e_key AND b.b_ok = TRUE`)
	p, err := eng.PrepareView("v")
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := p.DrivingScan()
	if !ok {
		t.Fatal("probing join view not partitionable")
	}
	if tab.Name() != "ev" {
		t.Fatalf("driving scan is %s, want ev", tab.Name())
	}
	var whole Result
	if err := p.QueryInto(&whole); err != nil {
		t.Fatal(err)
	}
	if len(whole.Rows) == 0 {
		t.Fatal("test view returned nothing; fixture broken")
	}
	for _, k := range []int{1, 2, 3, 8, 100} {
		var got Result
		var merged []sqltypes.Row
		for _, r := range tab.Partitions(k) {
			if err := p.QueryPartitionInto(r, 0, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Rows) > 0 && !reflect.DeepEqual(got.Columns, whole.Columns) {
				t.Fatalf("k=%d: partition columns %v != %v", k, got.Columns, whole.Columns)
			}
			merged = append(merged, append([]sqltypes.Row(nil), got.Rows...)...)
		}
		if !reflect.DeepEqual(merged, whole.Rows) {
			t.Fatalf("k=%d: merged partitions %v != whole %v", k, merged, whole.Rows)
		}
	}
	// The restriction must not leak into subsequent whole executions.
	var again Result
	if err := p.QueryInto(&again); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Rows, whole.Rows) {
		t.Fatal("whole execution after partitioned runs diverges: range leaked")
	}
}

// TestClonePartition: a permanently range-bound clone returns exactly its
// slice, and the prototype stays unrestricted.
func TestClonePartition(t *testing.T) {
	db, eng := partDB(t)
	createView(t, db, "v2", `SELECT e.e_val FROM ev AS e WHERE e.e_val > 3`)
	p, err := eng.PrepareView("v2")
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := p.DrivingScan()
	if !ok {
		t.Fatal("single-scan view not partitionable")
	}
	var whole Result
	if err := p.QueryInto(&whole); err != nil {
		t.Fatal(err)
	}
	var merged []sqltypes.Row
	for _, r := range tab.Partitions(3) {
		c := p.ClonePartition(r)
		res, err := c.Query()
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, res.Rows...)
	}
	if !reflect.DeepEqual(merged, whole.Rows) {
		t.Fatalf("clone partitions %v != whole %v", merged, whole.Rows)
	}
	var after Result
	if err := p.QueryInto(&after); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Rows, whole.Rows) {
		t.Fatal("prototype restricted by ClonePartition")
	}
}

// TestDrivingScanRejects: plans whose partitioning would be unsound —
// DISTINCT, aggregates, UNION, view-reading level-0, probed level-0 —
// must not report a driving scan.
func TestDrivingScanRejects(t *testing.T) {
	db, eng := partDB(t)
	createView(t, db, "ev_v", `SELECT e.e_val FROM ev AS e`)
	cases := map[string]string{
		"view":     `SELECT v.e_val FROM ev_v AS v`,
		"distinct": `SELECT DISTINCT e.e_key FROM ev AS e`,
		"agg":      `SELECT COUNT(*) FROM ev AS e`,
		"union":    `SELECT e.e_val FROM ev AS e UNION ALL SELECT b.b_key FROM base AS b`,
		"probed0":  `SELECT e.e_val FROM ev AS e WHERE e.e_key = 3`,
	}
	for name, sql := range cases {
		createView(t, db, "r_"+name, sql)
		p, err := eng.PrepareView("r_" + name)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := p.DrivingScan(); ok {
			t.Errorf("%s: reported partitionable", name)
		}
	}
}

// TestQueryLimitInto: the row cap stops execution early and returns exactly
// the first limit rows of the uncapped result.
func TestQueryLimitInto(t *testing.T) {
	db, eng := partDB(t)
	createView(t, db, "lim", `SELECT e.e_val FROM ev AS e`)
	p, err := eng.PrepareView("lim")
	if err != nil {
		t.Fatal(err)
	}
	var whole Result
	if err := p.QueryInto(&whole); err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 2, len(whole.Rows), len(whole.Rows) + 5} {
		var got Result
		if err := p.QueryLimitInto(limit, &got); err != nil {
			t.Fatal(err)
		}
		want := whole.Rows
		if limit < len(want) {
			want = want[:limit]
		}
		if !reflect.DeepEqual(got.Rows, want) {
			t.Fatalf("limit %d: got %v want %v", limit, got.Rows, want)
		}
	}
}
