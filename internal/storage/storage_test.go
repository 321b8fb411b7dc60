package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema("orders",
		[]Column{
			{Name: "o_orderkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "o_custkey", Type: sqltypes.KindInt},
			{Name: "o_totalprice", Type: sqltypes.KindFloat},
		},
		[]string{"o_orderkey"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func row(vals ...interface{}) sqltypes.Row {
	out := make(sqltypes.Row, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = sqltypes.NewInt(int64(x))
		case float64:
			out[i] = sqltypes.NewFloat(x)
		case string:
			out[i] = sqltypes.NewString(x)
		case nil:
			out[i] = sqltypes.Null
		case bool:
			out[i] = sqltypes.NewBool(x)
		default:
			panic("bad test value")
		}
	}
	return out
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema("", []Column{{Name: "a", Type: sqltypes.KindInt}}, nil, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewSchema("t", nil, nil, nil); err == nil {
		t.Error("no columns accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}, {Name: "a"}}, nil, nil); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}}, []string{"b"}, nil); err == nil {
		t.Error("bad PK accepted")
	}
	if _, err := NewSchema("t", []Column{{Name: "a"}}, nil,
		[]ForeignKey{{Columns: []string{"z"}, RefTable: "u", RefColumns: []string{"x"}}}); err == nil {
		t.Error("bad FK column accepted")
	}
}

func TestSchemaCaseInsensitive(t *testing.T) {
	s, err := NewSchema("T", []Column{{Name: "Abc", Type: sqltypes.KindInt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "t" || s.ColumnIndex("ABC") != 0 {
		t.Errorf("case folding: %+v", s)
	}
}

func TestInsertValidation(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Insert(row(1, 2)); err == nil {
		t.Error("short row accepted")
	}
	if err := tb.Insert(row(nil, 2, 3.0)); err == nil {
		t.Error("NULL in NOT NULL accepted")
	}
	if err := tb.Insert(row(1, "x", 3.0)); err == nil {
		t.Error("wrong kind accepted")
	}
	if err := tb.Insert(row(1, 2, 3.0)); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := tb.Insert(row(1, 9, 9.0)); err == nil {
		t.Error("duplicate PK accepted")
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestDeleteAndReuse(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 10; i++ {
		if err := tb.Insert(row(i, i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	n := tb.Delete(func(r sqltypes.Row) bool { return r[0].Int()%2 == 0 })
	if n != 5 || tb.Len() != 5 {
		t.Fatalf("deleted %d, len %d", n, tb.Len())
	}
	// PK slots are freed: re-insert deleted keys.
	for i := 0; i < 10; i += 2 {
		if err := tb.Insert(row(i, 0, 0.0)); err != nil {
			t.Fatalf("reinsert %d: %v", i, err)
		}
	}
	if tb.Len() != 10 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestLookupEqualAfterChurn(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 100; i++ {
		if err := tb.Insert(row(i, i%7, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Build the index, then churn.
	if err := tb.EnsureIndex("o_custkey"); err != nil {
		t.Fatal(err)
	}
	tb.Delete(func(r sqltypes.Row) bool { return r[0].Int() < 50 })
	for i := 100; i < 130; i++ {
		if err := tb.Insert(row(i, i%7, 0.0)); err != nil {
			t.Fatal(err)
		}
	}
	// Compare index lookups against scans for every key.
	for k := 0; k < 7; k++ {
		got := tb.LookupEqual([]int{1}, []sqltypes.Value{sqltypes.NewInt(int64(k))})
		want := 0
		tb.Scan(func(r sqltypes.Row) bool {
			if r[1].Int() == int64(k) {
				want++
			}
			return true
		})
		if len(got) != want {
			t.Errorf("key %d: index %d rows, scan %d", k, len(got), want)
		}
	}
	// NULL probe returns nothing.
	if rows := tb.LookupEqual([]int{1}, []sqltypes.Value{sqltypes.Null}); rows != nil {
		t.Error("NULL probe matched")
	}
}

func TestContainsRowWithNulls(t *testing.T) {
	s, err := NewSchema("t", []Column{
		{Name: "a", Type: sqltypes.KindInt},
		{Name: "b", Type: sqltypes.KindString},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	if err := tb.Insert(row(1, nil)); err != nil {
		t.Fatal(err)
	}
	if !tb.ContainsRow(row(1, nil)) {
		t.Error("row with NULL not found")
	}
	if tb.ContainsRow(row(2, nil)) {
		t.Error("absent row found")
	}
}

func TestTruncate(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 5; i++ {
		if err := tb.Insert(row(i, 0, 0.0)); err != nil {
			t.Fatal(err)
		}
	}
	tb.Truncate()
	if tb.Len() != 0 {
		t.Error("not empty")
	}
	if err := tb.Insert(row(0, 0, 0.0)); err != nil {
		t.Errorf("PK not reset: %v", err)
	}
}

func newTestDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("d")
	if _, err := db.CreateTable(testSchema(t)); err != nil {
		t.Fatal(err)
	}
	li, err := NewSchema("lineitem",
		[]Column{
			{Name: "l_orderkey", Type: sqltypes.KindInt, NotNull: true},
			{Name: "l_linenumber", Type: sqltypes.KindInt, NotNull: true},
		},
		[]string{"l_orderkey", "l_linenumber"},
		[]ForeignKey{{Columns: []string{"l_orderkey"}, RefTable: "orders", RefColumns: []string{"o_orderkey"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(li); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestEventTableNames(t *testing.T) {
	if InsTable("orders") != "ins_orders" || DelTable("orders") != "del_orders" {
		t.Error("prefixes")
	}
	base, isIns, ok := IsEventTable("ins_orders")
	if !ok || !isIns || base != "orders" {
		t.Error("IsEventTable ins")
	}
	base, isIns, ok = IsEventTable("del_orders")
	if !ok || isIns || base != "orders" {
		t.Error("IsEventTable del")
	}
	if _, _, ok := IsEventTable("orders"); ok {
		t.Error("base table flagged as event table")
	}
}

func TestInstallAndCapture(t *testing.T) {
	db := newTestDB(t)
	db.EnableCapture()
	if got := len(db.TableNames()); got != 6 {
		t.Errorf("tables = %d, want 6", got)
	}
	if got := db.BaseTableNames(); len(got) != 2 {
		t.Errorf("base tables = %v", got)
	}
	// Event tables drop NOT NULL (pending tuples are unvalidated).
	ins := db.Table("ins_orders")
	if ins.Schema().Columns[0].NotNull {
		t.Error("event table kept NOT NULL")
	}
	// Idempotent.
	before := db.Table("ins_orders")
	db.EnableCapture()
	if db.Table("ins_orders") != before || len(db.TableNames()) != 6 {
		t.Error("second EnableCapture replaced the event tables")
	}
	if !db.capture {
		t.Error("capture flag")
	}
}

func TestCaptureRouting(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	db.EnableCapture()
	if err := db.Insert("orders", row(2, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	n, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() == 1 })
	if err != nil || n != 1 {
		t.Fatalf("capture delete: %d %v", n, err)
	}
	if db.MustTable("orders").Len() != 1 {
		t.Error("base table modified under capture")
	}
	withIns, withDel := db.PendingEvents()
	if len(withIns) != 1 || len(withDel) != 1 {
		t.Errorf("pending: %v %v", withIns, withDel)
	}
	// Capture delete is idempotent per tuple.
	if _, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	if db.MustTable("del_orders").Len() != 1 {
		t.Error("duplicate delete captured twice")
	}
}

func TestNormalizeEvents(t *testing.T) {
	db := newTestDB(t)
	db.EnableCapture()
	r := row(1, 1, 1.0)
	if err := db.Insert("ins_orders", r.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("del_orders", r.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("ins_orders", row(2, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if n := db.NormalizeEvents(); n != 1 {
		t.Errorf("cancelled = %d, want 1", n)
	}
	if db.MustTable("ins_orders").Len() != 1 || db.MustTable("del_orders").Len() != 0 {
		t.Error("normalization wrong")
	}
}

func TestApplyEventsOrder(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	db.EnableCapture()
	// Delete key 1 and insert a different row with the same key: deletions
	// must apply before insertions or the PK check would reject it.
	if _, err := db.DeleteWhere("orders", func(r sqltypes.Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", row(1, 9, 9.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	rows := db.MustTable("orders").Rows()
	if len(rows) != 1 || rows[0][1].Int() != 9 {
		t.Errorf("rows after apply: %v", rows)
	}
	if !db.capture {
		t.Error("capture flag lost after apply")
	}
}

func TestCheckForeignKeys(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("lineitem", sqltypes.Row{sqltypes.NewInt(1), sqltypes.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if issues := db.CheckForeignKeys(); len(issues) != 0 {
		t.Errorf("unexpected issues: %v", issues)
	}
	if err := db.Insert("lineitem", sqltypes.Row{sqltypes.NewInt(99), sqltypes.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	if issues := db.CheckForeignKeys(); len(issues) != 1 {
		t.Errorf("issues = %v", issues)
	}
}

func TestCloneIndependence(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 1, 1.0)); err != nil {
		t.Fatal(err)
	}
	cl := db.Clone()
	if err := cl.Insert("orders", row(2, 2, 2.0)); err != nil {
		t.Fatal(err)
	}
	if db.MustTable("orders").Len() != 1 || cl.MustTable("orders").Len() != 2 {
		t.Error("clone not independent")
	}
	// PK index must be cloned too.
	if err := cl.Insert("orders", row(1, 0, 0.0)); err == nil {
		t.Error("clone lost PK index")
	}
}

func TestDropTableCascadesEvents(t *testing.T) {
	db := newTestDB(t)
	db.EnableCapture()
	if err := db.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	if db.Table("ins_lineitem") != nil || db.Table("del_lineitem") != nil {
		t.Error("event tables survived drop")
	}
	if err := db.DropTable("lineitem"); err == nil {
		t.Error("double drop accepted")
	}
}

// TestCreateTableAfterInstall: under capture, a table created later gets its
// event pair at creation, and so does one dropped and created again. Rows
// stage into the pair, and ApplyEvents moves them into the base table.
func TestCreateTableAfterInstall(t *testing.T) {
	db := newTestDB(t)
	db.EnableCapture()
	u, err := NewSchema("u", []Column{{Name: "a", Type: sqltypes.KindInt}}, []string{"a"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(u); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	li, err := NewSchema("lineitem", []Column{{Name: "l_orderkey", Type: sqltypes.KindInt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(li); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"u", "lineitem"} {
		if err := db.Insert(name, row(1)); err != nil {
			t.Fatal(err)
		}
		if db.MustTable(name).Len() != 0 || db.MustTable(InsTable(name)).Len() != 1 {
			t.Fatalf("%s: the insertion was not staged in %s", name, InsTable(name))
		}
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"u", "lineitem"} {
		if db.MustTable(name).Len() != 1 || db.MustTable(InsTable(name)).Len() != 0 {
			t.Errorf("%s: ApplyEvents did not move the staged row", name)
		}
	}
	want := "[del_lineitem del_orders del_u ins_lineitem ins_orders ins_u lineitem orders u]"
	if got := fmt.Sprint(db.TableNames()); got != want {
		t.Errorf("tables = %s, want %s", got, want)
	}
}

// TestEventPrefixesReserved: a table or view named ins_x or del_x would be
// taken for an event table, so CreateTable and CreateView refuse both
// prefixes, in any case.
func TestEventPrefixesReserved(t *testing.T) {
	db := NewDB("d")
	for _, name := range []string{"ins_x", "del_x", "DEL_X"} {
		s, err := NewSchema(name, []Column{{Name: "a", Type: sqltypes.KindInt}}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable(s); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("CreateTable(%s) = %v, want the reserved-prefix error", name, err)
		}
		if err := db.CreateView(name, nil); err == nil || !strings.Contains(err.Error(), "reserved") {
			t.Errorf("CreateView(%s) = %v, want the reserved-prefix error", name, err)
		}
	}
	if len(db.TableNames())+len(db.ViewNames()) != 0 {
		t.Fatalf("tables %v, views %v: want none", db.TableNames(), db.ViewNames())
	}
}

// TestDropTableRestrict: DROP TABLE is RESTRICT. A view reading the table,
// one reading its event table from a subquery, and another table's foreign
// key into it each block the drop, and the error names the blocker. A
// foreign key into the table itself does not.
func TestDropTableRestrict(t *testing.T) {
	db := newTestDB(t)
	db.EnableCapture()
	if err := db.DropTable("orders"); err == nil || !strings.Contains(err.Error(), "table lineitem") {
		t.Errorf("DropTable(orders) under lineitem's foreign key = %v", err)
	}
	for _, v := range []struct{ name, sql string }{
		{"reads", "SELECT * FROM lineitem AS l"},
		{"staged", "SELECT * FROM orders AS o WHERE EXISTS (SELECT * FROM del_lineitem AS d WHERE d.l_orderkey = o.o_orderkey)"},
	} {
		sel, err := sqlparser.ParseSelect(v.sql)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.CreateView(v.name, sel); err != nil {
			t.Fatal(err)
		}
		if err := db.DropTable("lineitem"); err == nil || !strings.Contains(err.Error(), "view "+v.name) {
			t.Errorf("DropTable(lineitem) under view %s = %v", v.name, err)
		}
		if err := db.DropView(v.name); err != nil {
			t.Fatal(err)
		}
	}
	if db.MustTable("lineitem").Len() != 0 || db.Table("ins_lineitem") == nil {
		t.Fatal("a refused drop changed the table")
	}
	if err := db.DropTable("lineitem"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("orders"); err != nil {
		t.Fatal(err)
	}
	self, err := NewSchema("tree", []Column{{Name: "id", Type: sqltypes.KindInt}, {Name: "parent", Type: sqltypes.KindInt}}, []string{"id"},
		[]ForeignKey{{Columns: []string{"parent"}, RefTable: "tree", RefColumns: []string{"id"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(self); err != nil {
		t.Fatal(err)
	}
	if err := db.DropTable("tree"); err != nil {
		t.Errorf("a self-referencing table cannot be dropped: %v", err)
	}
}

func TestViewRegistry(t *testing.T) {
	db := newTestDB(t)
	if err := db.CreateView("orders", nil); err == nil {
		t.Error("view shadowing table accepted")
	}
	if err := db.CreateView("v1", nil); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v1", nil); err == nil {
		t.Error("duplicate view accepted")
	}
	if got := db.ViewNames(); len(got) != 1 || got[0] != "v1" {
		t.Errorf("views = %v", got)
	}
	if err := db.DropView("v1"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropView("v1"); err == nil {
		t.Error("double view drop accepted")
	}
}

// --- property-based: index lookups always agree with scans ---

type opSeq struct{ Ops []uint8 }

func (opSeq) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 50 + r.Intn(200)
	ops := make([]uint8, n)
	for i := range ops {
		ops[i] = uint8(r.Intn(256))
	}
	return reflect.ValueOf(opSeq{Ops: ops})
}

func TestIndexScanAgreementProperty(t *testing.T) {
	s, err := NewSchema("t", []Column{
		{Name: "k", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seq opSeq) bool {
		tb := NewTable(s)
		if err := tb.EnsureIndex("v"); err != nil {
			return false
		}
		next := 0
		for _, op := range seq.Ops {
			switch {
			case op < 180: // insert
				_ = tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(next)), sqltypes.NewInt(int64(op % 10))})
				next++
			default: // delete one matching v
				key := int64(op % 10)
				deleted := false
				tb.Delete(func(r sqltypes.Row) bool {
					if !deleted && r[1].Int() == key {
						deleted = true
						return true
					}
					return false
				})
			}
		}
		for k := int64(0); k < 10; k++ {
			got := len(tb.LookupEqual([]int{1}, []sqltypes.Value{sqltypes.NewInt(k)}))
			want := 0
			tb.Scan(func(r sqltypes.Row) bool {
				if r[1].Int() == k {
					want++
				}
				return true
			})
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMustTablePanics(t *testing.T) {
	db := NewDB("d")
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "no table") {
			t.Error("MustTable did not panic")
		}
	}()
	db.MustTable("nope")
}
