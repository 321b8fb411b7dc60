package storage

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tintin/internal/sqltypes"
)

// netEffectDB builds t(a INT, b INT), with PRIMARY KEY (a) when pk is set,
// seeds its base table and stages one batch into ins_t / del_t directly.
// Deletions are distinct base rows (what capture produces); insertions repeat
// rows on purpose, deleted rows among them.
func netEffectDB(t *testing.T, pk bool, rng *rand.Rand) *DB {
	t.Helper()
	var key []string
	if pk {
		key = []string{"a"}
	}
	s, err := NewSchema("t", []Column{{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindInt}}, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB("d")
	if _, err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	var base []sqltypes.Row
	for a := 0; a < 8; a++ {
		if rng.Intn(2) == 0 {
			continue
		}
		r := sqltypes.Row{ci(int64(a)), ci(int64(rng.Intn(2)))}
		if err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
		base = append(base, r)
		if !pk && rng.Intn(3) == 0 { // a duplicate base row
			if err := db.Insert("t", r.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	db.EnableCapture()
	var del []sqltypes.Row
	for _, r := range base {
		if rng.Intn(2) == 0 {
			del = append(del, r)
			if err := db.Insert(DelTable("t"), r.Clone()); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := rng.Intn(7); n > 0; n-- {
		r := sqltypes.Row{ci(int64(rng.Intn(10))), ci(int64(rng.Intn(2)))}
		if len(del) > 0 && rng.Intn(2) == 0 {
			r = del[rng.Intn(len(del))].Clone()
		}
		if err := db.Insert(InsTable("t"), r); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// appliedState applies db's pending events (normalizing first when asked)
// and returns the base table's rows, sorted.
func appliedState(db *DB, normalize bool) ([]string, error) {
	if normalize {
		db.NormalizeEvents()
	}
	if err := db.ApplyEvents(); err != nil {
		return nil, err
	}
	var out []string
	db.MustTable("t").Scan(func(r sqltypes.Row) bool {
		out = append(out, r.String())
		return true
	})
	sort.Strings(out)
	return out, nil
}

// TestNormalizePreservesNetEffect: NormalizeEvents may only cancel an
// insertion against a matching deletion, so the base state after
// NormalizeEvents+ApplyEvents must equal the one after ApplyEvents alone —
// the state the non-incremental baseline checks. An insertion staged more
// often than its deletion keeps the surplus copies.
func TestNormalizePreservesNetEffect(t *testing.T) {
	// The minimal case: t(a) holds (1); ins_t = {(1),(1)}, del_t = {(1)}.
	s, err := NewSchema("t", []Column{{Name: "a", Type: sqltypes.KindInt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB("d")
	if _, err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", sqltypes.Row{ci(1)}); err != nil {
		t.Fatal(err)
	}
	db.EnableCapture()
	for _, table := range []string{InsTable("t"), InsTable("t"), DelTable("t")} {
		if err := db.Insert(table, sqltypes.Row{ci(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.NormalizeEvents(); n != 1 {
		t.Errorf("cancelled = %d, want 1", n)
	}
	if ins, del := db.MustTable(InsTable("t")).Len(), db.MustTable(DelTable("t")).Len(); ins != 1 || del != 0 {
		t.Fatalf("after normalizing: ins_t has %d rows, del_t %d; want 1 and 0", ins, del)
	}

	for _, pk := range []bool{false, true} {
		for seed := int64(1); seed <= 300; seed++ {
			db := netEffectDB(t, pk, rand.New(rand.NewSource(seed)))
			want, wantErr := appliedState(db.Clone(), false)
			got, gotErr := appliedState(db.Clone(), true)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("pk=%v seed %d: apply alone: %v; normalized: %v", pk, seed, wantErr, gotErr)
			}
			if !slices.Equal(want, got) {
				t.Fatalf("pk=%v seed %d: apply alone leaves %v, normalized %v", pk, seed, want, got)
			}
		}
	}
}

// newKeyedDB returns a database holding t(id INT PRIMARY KEY, v INT) with
// rows (i, 10*i) for i in [0, n), event tables installed and capture on.
func newKeyedDB(t *testing.T, n int) *DB {
	t.Helper()
	s, err := NewSchema("t", []Column{{Name: "id", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindInt}}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB("d")
	if _, err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.Insert("t", sqltypes.Row{ci(int64(i)), ci(int64(10 * i))}); err != nil {
			t.Fatal(err)
		}
	}
	db.EnableCapture()
	return db
}

// TestApplyRevalidatesAfterWrites: ValidateEvents' proof covers only the
// state it saw. A write after it — a row staged straight through
// Table.Insert, or a base row that takes a pending key — sends ApplyEvents
// back to validation, which refuses the batch and leaves base and events
// untouched.
func TestApplyRevalidatesAfterWrites(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write func(db *DB) error
	}{
		{"staged duplicate", func(db *DB) error { return db.MustTable(InsTable("t")).Insert(sqltypes.Row{ci(5), ci(51)}) }},
		{"base takes the key", func(db *DB) error { return db.MustTable("t").Insert(sqltypes.Row{ci(5), ci(52)}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := newKeyedDB(t, 1)
			if err := db.Insert("t", sqltypes.Row{ci(5), ci(50)}); err != nil {
				t.Fatal(err)
			}
			if err := db.ValidateEvents(); err != nil {
				t.Fatal(err)
			}
			if err := tc.write(db); err != nil {
				t.Fatal(err)
			}
			baseLen, insLen := db.MustTable("t").Len(), db.MustTable(InsTable("t")).Len()
			if err := db.ApplyEvents(); err == nil {
				t.Fatal("ApplyEvents trusted a validation that a later write invalidated")
			}
			if db.MustTable("t").Len() != baseLen || db.MustTable(InsTable("t")).Len() != insLen {
				t.Fatal("the refused apply changed the base table or the pending events")
			}
		})
	}
}

// TestDeleteRowsRemovesWhatWasRead: without capture, DeleteRows removes the
// very rows the table yielded — found through the primary key, through an
// existing secondary index, or by one sweep of a table with neither — and
// builds no index. Of a bag's duplicates only the copy passed in goes, and
// an identical row the table did not yield is not deleted.
func TestDeleteRowsRemovesWhatWasRead(t *testing.T) {
	for _, tc := range []struct {
		name      string
		pk, index bool
		want      string
	}{
		{"primary key", true, false, "[(0, 0) (2, 0) (3, 1) (5, 1)]"},
		{"secondary index", false, true, "[(0, 0) (1, 1) (2, 0) (3, 1) (5, 1)]"},
		{"no index", false, false, "[(0, 0) (1, 1) (2, 0) (3, 1) (5, 1)]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var key []string
			if tc.pk {
				key = []string{"a"}
			}
			s, err := NewSchema("t", []Column{{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindInt}}, key, nil)
			if err != nil {
				t.Fatal(err)
			}
			db := NewDB("d")
			tb, err := db.CreateTable(s)
			if err != nil {
				t.Fatal(err)
			}
			for a := 0; a < 6; a++ {
				if err := tb.Insert(sqltypes.Row{ci(int64(a)), ci(int64(a % 2))}); err != nil {
					t.Fatal(err)
				}
			}
			if !tc.pk { // a second (1, 1)
				if err := tb.Insert(sqltypes.Row{ci(1), ci(1)}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.index {
				if err := tb.EnsureIndex("b"); err != nil {
					t.Fatal(err)
				}
			}
			var read []sqltypes.Row
			seen1 := false
			tb.Scan(func(r sqltypes.Row) bool {
				switch a := r[0].Int(); {
				case a == 1 && !seen1, a == 4:
					read = append(read, r)
					seen1 = seen1 || a == 1
				}
				return true
			})
			n, err := db.DeleteRows("t", append(read, sqltypes.Row{ci(5), ci(1)}))
			if err != nil {
				t.Fatal(err)
			}
			var left []string
			tb.Scan(func(r sqltypes.Row) bool {
				left = append(left, r.String())
				return true
			})
			sort.Strings(left)
			if n != 2 || fmt.Sprint(left) != tc.want {
				t.Errorf("DeleteRows removed %d rows leaving %v; want 2 leaving %s", n, left, tc.want)
			}
			if tb.HasIndexOn(tb.allCols) || !tc.index && tb.HasIndexOn([]int{0}) {
				t.Error("DeleteRows built an index")
			}
		})
	}
}

// TestInsertRowsKeepsHandedRows: storage stores a handed row as it is and
// never writes into one. A row CheckRow must coerce is stored as a copy that
// replaces it in the caller's list, the row itself unchanged. A duplicate key
// without capture undoes the rows before it, and the table then fills the
// same slots in the same order as if the failed call had not happened.
func TestInsertRowsKeepsHandedRows(t *testing.T) {
	for _, capture := range []bool{false, true} {
		t.Run(fmt.Sprintf("capture=%v", capture), func(t *testing.T) {
			s, err := NewSchema("t", []Column{{Name: "id", Type: sqltypes.KindInt}, {Name: "v", Type: sqltypes.KindFloat}}, []string{"id"}, nil)
			if err != nil {
				t.Fatal(err)
			}
			db := NewDB("d")
			tb, err := db.CreateTable(s)
			if err != nil {
				t.Fatal(err)
			}
			if capture {
				db.EnableCapture()
				tb = tb.ins
			}
			exact := sqltypes.Row{ci(1), sqltypes.NewFloat(1.5)}
			coerce := sqltypes.Row{ci(2), ci(3)}
			rows := []sqltypes.Row{exact, coerce}
			if n, err := db.InsertRows("t", rows); n != 2 || err != nil {
				t.Fatalf("InsertRows = %d, %v", n, err)
			}
			if coerce[1].Kind() != sqltypes.KindInt || rows[1][1].Kind() != sqltypes.KindFloat {
				t.Errorf("coerced row: caller's %v, list's %v; want the caller's unchanged and a REAL copy in the list", coerce, rows[1])
			}
			stored := tb.Rows()
			if len(stored) != 2 || &stored[0][0] != &exact[0] || &stored[1][0] != &rows[1][0] {
				t.Errorf("table holds %v, not the rows it was handed", stored)
			}
			if capture {
				return // ins_t has no key: duplicates wait for ValidateEvents
			}
			tb.DeleteRow(exact) // a free slot to be taken first
			_, err = db.InsertRows("t", []sqltypes.Row{{ci(4), sqltypes.NewFloat(0)}, {ci(5), sqltypes.NewFloat(0)}, {ci(2), sqltypes.NewFloat(0)}})
			if err == nil || !strings.Contains(err.Error(), "duplicate primary key (2, 0.0)") {
				t.Fatalf("err = %v, want a duplicate key", err)
			}
			if got := fmt.Sprint(tb.Rows()); got != "[(2, 3.0)]" {
				t.Errorf("t = %s after the failed InsertRows, want [(2, 3.0)]", got)
			}
			if _, err := db.InsertRows("t", []sqltypes.Row{{ci(6), sqltypes.NewFloat(0)}, {ci(7), sqltypes.NewFloat(0)}, {ci(8), sqltypes.NewFloat(0)}}); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(tb.Rows()); got != "[(6, 0.0) (2, 3.0) (7, 0.0) (8, 0.0)]" {
				t.Errorf("t in slot order = %s, want [(6, 0.0) (2, 3.0) (7, 0.0) (8, 0.0)]", got)
			}
		})
	}
}

// allocsDuring reports the heap allocations f makes, on one P like
// testing.AllocsPerRun so no other goroutine's allocations are counted.
func allocsDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// skipAllocGuard skips allocation guards under the race detector, whose
// instrumentation allocates.
func skipAllocGuard(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// warmTable returns w(id PRIMARY KEY, grp, v VARCHAR) holding n rows spread
// over 4 groups, plus the rows it holds. withGroups adds an index on grp
// (buckets of n/4 slots); otherwise the tuple-identity index (one slot per
// bucket) is built. An even row's identity key is 20 bytes long, an odd
// row's 60.
func warmTable(t *testing.T, n int, withGroups bool) (*Table, []sqltypes.Row) {
	t.Helper()
	s, err := NewSchema("w", []Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "grp", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindString},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	if withGroups {
		if err := tb.EnsureIndex("grp"); err != nil {
			t.Fatal(err)
		}
	} else {
		tb.identityIndex()
	}
	rows := warmRows(0, n)
	for _, r := range rows {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	return tb, rows
}

// warmRows returns the warmTable rows with ids from through to-1.
func warmRows(from, to int) []sqltypes.Row {
	rows := make([]sqltypes.Row, 0, to-from)
	for i := from; i < to; i++ {
		rows = append(rows, sqltypes.Row{ci(int64(i)), ci(int64(i % 4)), sqltypes.NewString(strings.Repeat("v", i%2*40))})
	}
	return rows
}

// TestTruncateAllocFree: Truncate clears every index in place.
func TestTruncateAllocFree(t *testing.T) {
	skipAllocGuard(t)
	tb, rows := warmTable(t, 256, true)
	tb.identityIndex()
	for round := 0; round < 3; round++ {
		if n := allocsDuring(tb.Truncate); n != 0 {
			t.Fatalf("round %d: Truncate of a %d-row table allocated %d times", round, len(rows), n)
		}
		if tb.Len() != 0 || tb.pk.n != 0 {
			t.Fatal("Truncate left rows or keys behind")
		}
		for _, r := range rows {
			if err := tb.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEventLoopsAllocFree: with capture on and nothing pending, every event
// loop walks the base tables and reaches each pair by pointer, so a commit of
// an empty batch over 8 tables allocates nothing.
func TestEventLoopsAllocFree(t *testing.T) {
	skipAllocGuard(t)
	db := NewDB("d")
	for i := 0; i < 8; i++ {
		s, err := NewSchema(fmt.Sprintf("t%d", i), []Column{{Name: "id", Type: sqltypes.KindInt}}, []string{"id"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateTable(s); err != nil {
			t.Fatal(err)
		}
	}
	db.EnableCapture()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	for _, loop := range []struct {
		name string
		run  func()
	}{
		{"PendingEvents", func() { db.PendingEvents() }},
		{"NormalizeEvents", func() { db.NormalizeEvents() }},
		{"ValidateEvents", func() { must(db.ValidateEvents()) }},
		{"ApplyEvents", func() { must(db.ApplyEvents()) }},
		{"TruncateEvents", db.TruncateEvents},
	} {
		loop.run() // warm-up
		if n := allocsDuring(loop.run); n != 0 {
			t.Errorf("%s over 8 empty event pairs allocated %d times", loop.name, n)
		}
	}
}

// TestDeleteRowAllocFree: DeleteRow encodes its keys into the table's scratch,
// probes, and frees index entries without copying a key, whatever the key's
// length: half the identity keys here are longer than 32 bytes.
func TestDeleteRowAllocFree(t *testing.T) {
	skipAllocGuard(t)
	tb, rows := warmTable(t, 256, false)
	deleteAll := func() {
		for _, r := range rows[:128] {
			if !tb.DeleteRow(r) {
				panic("row not found")
			}
		}
	}
	deleteAll() // grows the free list once
	for _, r := range rows[:128] {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := allocsDuring(deleteAll); n != 0 {
		t.Fatalf("128 DeleteRow calls allocated %d times", n)
	}
	if tb.Len() != 128 {
		t.Fatalf("len = %d, want 128", tb.Len())
	}
}

// TestInsertAllocs: an Insert into a warm table — free slots, buckets with
// spare capacity, pooled buckets for the freed primary keys — allocates
// nothing: no key copy, no key buffer, no bucket, no slot growth.
func TestInsertAllocs(t *testing.T) {
	skipAllocGuard(t)
	tb, rows := warmTable(t, 256, true)
	tb.Delete(func(r sqltypes.Row) bool { return r[0].Int() < 64 })
	n := allocsDuring(func() {
		for _, r := range rows[:64] {
			if err := tb.Insert(r); err != nil {
				panic(err)
			}
		}
	})
	if n != 0 {
		t.Fatalf("64 warm inserts allocated %d times", n)
	}
}

// TestIndexChurnAllocFree: on a warm table with a primary key, a secondary
// index and the identity index, deleting the oldest rows and inserting rows
// under keys the table has never held allocates nothing. Every new key takes
// a bucket a deleted key gave back, and the live key count, hence the entry
// array, stays put.
func TestIndexChurnAllocFree(t *testing.T) {
	skipAllocGuard(t)
	const live, batch, rounds = 256, 64, 8
	tb, _ := warmTable(t, live, true)
	tb.identityIndex()
	rows := warmRows(0, live+batch*(rounds+1))
	oldest := 0
	churn := func() {
		for _, r := range rows[oldest : oldest+batch] {
			if !tb.DeleteRow(r) {
				panic("row not found")
			}
		}
		for _, r := range rows[oldest+live : oldest+live+batch] {
			if err := tb.Insert(r); err != nil {
				panic(err)
			}
		}
		oldest += batch
	}
	churn() // grows the free list once
	n := allocsDuring(func() {
		for i := 0; i < rounds; i++ {
			churn()
		}
	})
	if n != 0 {
		t.Fatalf("%d rounds of %d deletes and %d new keys allocated %d times", rounds, batch, batch, n)
	}
	if tb.Len() != live || tb.LookupEqual([]int{0}, []sqltypes.Value{ci(int64(oldest + live - 1))}) == nil {
		t.Fatal("the churned table lost rows")
	}
}

// TestValidateEventsAllocs: validating a batch against a warm PK table
// encodes keys into scratch and probes indexes that already hold them (the
// base table's primary key, ins_t's index over it for duplicates among the
// pending insertions), so what it allocates does not grow with the batch.
func TestValidateEventsAllocs(t *testing.T) {
	skipAllocGuard(t)
	db := newKeyedDB(t, 1000)
	// 100 deletions whose keys are re-inserted, plus 100 fresh keys.
	if _, err := db.DeleteWhere("t", func(r sqltypes.Row) bool { return r[0].Int() < 100 }); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		k := int64(i)
		if i >= 100 {
			k += 1000
		}
		if err := db.Insert("t", sqltypes.Row{ci(k), ci(-1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ValidateEvents(); err != nil { // warm-up
		t.Fatal(err)
	}
	const pending, constant = 200, 8
	var verr error
	if n := allocsDuring(func() { verr = db.ValidateEvents() }); n > constant {
		t.Fatalf("ValidateEvents of %d pending insertions allocated %d times, want at most %d", pending, n, constant)
	}
	if verr != nil {
		t.Fatal(verr)
	}
}

// TestEncodeEventsAllocs: a warm EncodeEvents appends into the database's
// scratch buffer and writes it once, so its allocations do not depend on the
// batch size: a 50-row and a 5,000-row batch allocate the same count.
func TestEncodeEventsAllocs(t *testing.T) {
	skipAllocGuard(t)
	allocs := func(n int) uint64 {
		db := newKeyedDB(t, n)
		for i := 0; i < n; i++ {
			if err := db.Insert("t", sqltypes.Row{ci(int64(n + i)), ci(int64(i))}); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.DeleteWhere("t", func(r sqltypes.Row) bool { return r[0].Int()%2 == 0 }); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		encode := func() {
			buf.Reset()
			if err := db.EncodeEvents(&buf); err != nil {
				panic(err)
			}
		}
		encode() // grows the scratch and the buffer once
		return allocsDuring(encode)
	}
	if small, large := allocs(50), allocs(5000); small != large {
		t.Fatalf("warm EncodeEvents allocated %d times for 50 rows, %d for 5,000", small, large)
	}
}

// TestSaveAllocs: Save appends every row straight into one payload, so a
// 50,000-row table costs the payload's growth, not an object per row.
func TestSaveAllocs(t *testing.T) {
	skipAllocGuard(t)
	const rows = 50_000
	db := newKeyedDB(t, rows)
	n := allocsDuring(func() {
		if err := db.Save(io.Discard); err != nil {
			panic(err)
		}
	})
	if n >= rows/100 {
		t.Fatalf("Save of %d rows allocated %d times, want fewer than %d", rows, n, rows/100)
	}
}

// TestDeleteRowsSharedRowInBag: a bag may hold one row in two slots, as
// when the same row is inserted twice, or staged twice and committed.
// Without an index DeleteRows finds a row by its backing array, and each
// read of it removes exactly one slot.
func TestDeleteRowsSharedRowInBag(t *testing.T) {
	s, err := NewSchema("t", []Column{{Name: "a", Type: sqltypes.KindInt}, {Name: "b", Type: sqltypes.KindInt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB("d")
	tb, err := db.CreateTable(s)
	if err != nil {
		t.Fatal(err)
	}
	r := sqltypes.Row{ci(1), ci(2)}
	for i := 0; i < 3; i++ {
		if err := db.Insert("t", r); err != nil {
			t.Fatal(err)
		}
	}
	for _, reads := range []int{1, 2} {
		left := tb.Len()
		read := tb.Rows()[:reads]
		if n, err := db.DeleteRows("t", read); n != reads || err != nil || tb.Len() != left-reads {
			t.Fatalf("DeleteRows of %d reads of %d slots = %d, %v, leaving %d; want %d leaving %d", reads, left, n, err, tb.Len(), reads, left-reads)
		}
	}
}

// TestTruncateReleasesRows: once a commit has applied a staged deletion,
// nothing in storage holds the deleted row; Truncate clears the slots it
// drops, so del_t's array does not keep the row alive until a later batch
// reuses them.
func TestTruncateReleasesRows(t *testing.T) {
	db := newKeyedDB(t, 0)
	freed := make(chan struct{})
	func() {
		if err := db.MustTable("t").Insert(sqltypes.Row{ci(1), ci(10)}); err != nil {
			t.Fatal(err)
		}
		if _, err := db.DeleteWhere("t", func(sqltypes.Row) bool { return true }); err != nil {
			t.Fatal(err)
		}
		db.MustTable(DelTable("t")).Scan(func(r sqltypes.Row) bool {
			runtime.SetFinalizer(&r[0], func(*sqltypes.Value) { close(freed) })
			return true
		})
		if err := db.ApplyEvents(); err != nil {
			t.Fatal(err)
		}
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			if db.MustTable("t").Len() != 0 {
				t.Fatal("the commit did not delete the row")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the database still holds the deleted row after the commit")
}

// churnDB returns newKeyedDB(n) with a secondary index on v, and stages
// into it a batch of n deletions, the oldest keys, and n insertions under
// keys it has never held. Each call of the returned function stages the
// next such batch.
func churnDB(t *testing.T, n int) (*DB, func()) {
	t.Helper()
	db := newKeyedDB(t, n)
	if err := db.MustTable("t").EnsureIndex("v"); err != nil {
		t.Fatal(err)
	}
	next := 0
	stage := func() {
		if _, err := db.DeleteWhere("t", func(r sqltypes.Row) bool { return r[0].Int() < int64(next+n) }); err != nil {
			panic(err)
		}
		for k := next + n; k < next+2*n; k++ {
			if err := db.Insert("t", sqltypes.Row{ci(int64(k)), ci(int64(10 * k))}); err != nil {
				panic(err)
			}
		}
		next += n
	}
	stage()
	return db, stage
}

// TestApplyEventsAllocFree: a validated batch of deletions and insertions
// applies to a warm keyed table with a secondary index without allocating,
// whatever its size: the staged rows move into the base table, and the
// indexes reuse the entries and buckets the deleted keys gave back.
func TestApplyEventsAllocFree(t *testing.T) {
	skipAllocGuard(t)
	for _, n := range []int{100, 1000} {
		db, stage := churnDB(t, n)
		apply := func() {
			if err := db.ApplyEvents(); err != nil {
				panic(err)
			}
		}
		for round := 0; round < 3; round++ {
			if err := db.ValidateEvents(); err != nil {
				t.Fatal(err)
			}
			if allocs := allocsDuring(apply); round > 0 && allocs != 0 {
				t.Errorf("round %d: ApplyEvents of %d deletions and %d insertions allocated %d times", round, n, n, allocs)
			}
			stage()
		}
		if got := db.MustTable("t").Len(); got != n {
			t.Fatalf("t holds %d rows after the churn, want %d", got, n)
		}
	}
}

// TestDeleteRowsCaptureAllocFree: under capture, DeleteRows stages the
// matched base rows themselves in a warm del_t, so it allocates nothing.
func TestDeleteRowsCaptureAllocFree(t *testing.T) {
	skipAllocGuard(t)
	const n = 1000
	db := newKeyedDB(t, 2*n)
	matched := db.MustTable("t").Rows()[:n]
	for round := 0; round < 3; round++ {
		var err error
		if allocs := allocsDuring(func() { _, err = db.DeleteRows("t", matched) }); round > 0 && allocs != 0 {
			t.Errorf("round %d: staging %d deletions allocated %d times", round, n, allocs)
		}
		if err != nil || db.MustTable(DelTable("t")).Len() != n {
			t.Fatalf("staged %d deletions (err %v), want %d", db.MustTable(DelTable("t")).Len(), err, n)
		}
		db.TruncateEvents()
	}
}

// TestApplyMovesStagedRows: a row changes owner instead of being copied.
// del_t holds the matched base row itself, and after the commit the base
// table holds the very row handed to Insert.
func TestApplyMovesStagedRows(t *testing.T) {
	db := newKeyedDB(t, 2)
	var old sqltypes.Row
	db.MustTable("t").Scan(func(r sqltypes.Row) bool {
		old = r
		return false
	})
	if _, err := db.DeleteRows("t", []sqltypes.Row{old}); err != nil {
		t.Fatal(err)
	}
	staged := db.MustTable(DelTable("t")).Rows()
	if len(staged) != 1 || &staged[0][0] != &old[0] {
		t.Error("del_t does not hold the base row itself")
	}
	r := sqltypes.Row{ci(7), ci(70)}
	if err := db.Insert("t", r); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	found := false
	db.MustTable("t").Scan(func(s sqltypes.Row) bool {
		found = found || &s[0] == &r[0]
		return true
	})
	if !found || db.MustTable("t").Len() != 2 {
		t.Errorf("t = %v after the commit; want the inserted row itself beside one old row", db.MustTable("t").Rows())
	}
}
