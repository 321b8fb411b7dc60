// Concurrency tests for snapshot-safe probing: with scratch buffers moved
// out of Table/Index, any number of readers with private scratch may probe
// and scan concurrently, and mutations on *other* tables (including
// DeleteRow slot-reuse and Truncate) never perturb them. Run under -race
// via make test-race.
package storage

import (
	"sync"
	"testing"

	"tintin/internal/sqltypes"
)

func ci(n int64) sqltypes.Value { return sqltypes.NewInt(n) }

func newConcTable(t *testing.T, name string, rows int) *Table {
	t.Helper()
	s, err := NewSchema(name, []Column{
		{Name: "k", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	for i := 0; i < rows; i++ {
		// Two rows per key so index buckets have length > 1.
		if err := tb.Insert(sqltypes.Row{ci(int64(i % 50)), ci(int64(i%50) * 7)}); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// TestConcurrentReadersSharedIndex: many readers share one Index handle
// over a quiescent table, each with a private scratch buffer, while
// another table in the same database churns through DeleteRow slot reuse
// and Truncate. No reader may ever observe a torn row or a wrong bucket.
func TestConcurrentReadersSharedIndex(t *testing.T) {
	readTable := newConcTable(t, "hot", 1000)
	churnTable := newConcTable(t, "churn", 100)
	idx, err := readTable.IndexOn([]int{0})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg, mutWG sync.WaitGroup

	// Mutator: delete/reinsert churn (exercising the free-list slot reuse)
	// plus periodic Truncate on the other table.
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for round := 0; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			k := int64(round % 50)
			churnTable.DeleteRow(sqltypes.Row{ci(k), ci(k * 7)})
			_ = churnTable.Insert(sqltypes.Row{ci(k), ci(k * 7)})
			if round%500 == 499 {
				churnTable.Truncate()
				for i := 0; i < 100; i++ {
					_ = churnTable.Insert(sqltypes.Row{ci(int64(i % 50)), ci(int64(i%50) * 7)})
				}
			}
		}
	}()

	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var scratch []byte
			probe := make([]sqltypes.Value, 1)
			for i := 0; i < 5000; i++ {
				k := int64((i + r) % 50)
				probe[0] = ci(k)
				n := 0
				idx.ScanEqualScratch(&scratch, probe, nil, func(row sqltypes.Row) bool {
					if row[0].Int() != k || row[1].Int() != k*7 {
						t.Errorf("reader %d: torn row %v for key %d", r, row, k)
						return false
					}
					n++
					return true
				})
				if n != 20 { // 1000 rows over 50 keys
					t.Errorf("reader %d: key %d matched %d rows, want 20", r, k, n)
					return
				}
			}
		}(r)
	}

	// A scanning reader alongside the probing ones.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			total := 0
			readTable.Scan(func(row sqltypes.Row) bool {
				if row[1].Int() != row[0].Int()*7 {
					t.Errorf("scan: torn row %v", row)
					return false
				}
				total++
				return true
			})
			if total != 1000 {
				t.Errorf("scan saw %d rows, want 1000", total)
				return
			}
		}
	}()

	// Let the readers finish, then stop the mutator.
	wg.Wait()
	close(stop)
	mutWG.Wait()
}

// TestConcurrentProbesPrivateScratch: two goroutines probing through the
// same Index with different keys must not share encoding state — each sees
// exactly its own bucket.
func TestConcurrentProbesPrivateScratch(t *testing.T) {
	tb := newConcTable(t, "t", 500)
	idx, err := tb.IndexOn([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var scratch []byte
			for i := 0; i < 10000; i++ {
				k := int64((g*13 + i) % 50)
				got := int64(-1)
				idx.ScanEqualScratch(&scratch, []sqltypes.Value{ci(k)}, nil, func(row sqltypes.Row) bool {
					got = row[0].Int()
					return false
				})
				if got != k {
					t.Errorf("goroutine %d: probed %d, bucket returned %d", g, k, got)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestFreezeBlocksWrites: a frozen database rejects every write path and
// resumes normally after Thaw.
func TestFreezeBlocksWrites(t *testing.T) {
	db := NewDB("d")
	s, err := NewSchema("t", []Column{{Name: "a", Type: sqltypes.KindInt}}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	if !db.Frozen() {
		t.Fatal("Frozen() false after Freeze")
	}
	if err := db.Insert("t", sqltypes.Row{ci(1)}); err == nil {
		t.Fatal("Insert succeeded on frozen db")
	}
	if _, err := db.DeleteWhere("t", func(sqltypes.Row) bool { return true }); err == nil {
		t.Fatal("DeleteWhere succeeded on frozen db")
	}
	if err := db.ApplyEvents(); err == nil {
		t.Fatal("ApplyEvents succeeded on frozen db")
	}
	// Void-returning mutators must fail loudly (panic), not race.
	mustPanic(t, "TruncateEvents", func() { db.TruncateEvents() })
	mustPanic(t, "NormalizeEvents", func() { db.NormalizeEvents() })
	db.Thaw()
	if err := db.Insert("t", sqltypes.Row{ci(1)}); err != nil {
		t.Fatalf("Insert after Thaw: %v", err)
	}
	db.TruncateEvents() // no event tables: a no-op, but must not panic now
}

// TestApplyEventsAtomic: a replay that would fail (duplicate primary key
// among the pending insertions) must leave both the base tables and the
// pending events untouched — deletions from the same batch must not have
// been applied. This is what lets the group committer fall back to
// per-delta commits after a failed batch.
func TestApplyEventsAtomic(t *testing.T) {
	db := NewDB("d")
	s, err := NewSchema("t", []Column{
		{Name: "id", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}, []string{"id"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(s); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", sqltypes.Row{ci(1), ci(10)}); err != nil {
		t.Fatal(err)
	}
	if err := db.InstallEventTables(); err != nil {
		t.Fatal(err)
	}
	if err := db.SetCapture(true); err != nil {
		t.Fatal(err)
	}
	// Stage: delete row 1, then two insertions claiming the same PK 2 —
	// the batch must be refused as a whole.
	if _, err := db.DeleteWhere("t", func(r sqltypes.Row) bool { return r[0].Int() == 1 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", sqltypes.Row{ci(2), ci(20)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", sqltypes.Row{ci(2), ci(21)}); err != nil { // duplicate PK in batch
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err == nil {
		t.Fatal("ApplyEvents with a duplicate pending PK succeeded")
	}
	// Base untouched: row 1 still present (the delete was NOT applied), no
	// row 2; events still staged.
	if got := db.MustTable("t").Len(); got != 1 {
		t.Fatalf("base table has %d rows after failed apply, want 1", got)
	}
	if !db.MustTable("t").ContainsRow(sqltypes.Row{ci(1), ci(10)}) {
		t.Fatal("failed apply removed row 1 (partial apply)")
	}
	if db.MustTable(DelTable("t")).Len() != 1 || db.MustTable(InsTable("t")).Len() != 2 {
		t.Fatal("failed apply consumed staged events")
	}
	// Dropping the guilty insertion makes the same batch apply cleanly:
	// delete applied, one insert applied.
	if !db.MustTable(InsTable("t")).DeleteRow(sqltypes.Row{ci(2), ci(21)}) {
		t.Fatal("could not unstage the duplicate insertion")
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatal(err)
	}
	tb := db.MustTable("t")
	if tb.Len() != 1 || !tb.ContainsRow(sqltypes.Row{ci(2), ci(20)}) {
		t.Fatalf("clean apply produced wrong state (%d rows)", tb.Len())
	}
	// An insertion whose PK is freed by a same-batch deletion is valid.
	if _, err := db.DeleteWhere("t", func(r sqltypes.Row) bool { return r[0].Int() == 2 }); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("t", sqltypes.Row{ci(2), ci(22)}); err != nil {
		t.Fatal(err)
	}
	if err := db.ApplyEvents(); err != nil {
		t.Fatalf("delete-then-reinsert of the same PK must validate: %v", err)
	}
	if !db.MustTable("t").ContainsRow(sqltypes.Row{ci(2), ci(22)}) {
		t.Fatal("reinsert after delete did not land")
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic on frozen db", name)
		}
	}()
	f()
}
