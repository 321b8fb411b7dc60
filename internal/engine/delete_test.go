package engine

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
	"tintin/internal/storage"
)

// deleteDB returns an engine over t(x INTEGER) holding rows, with event
// capture on when capture is set.
func deleteDB(t *testing.T, capture bool, rows string) (*storage.DB, *Engine) {
	t.Helper()
	db := storage.NewDB("d")
	eng := New(db)
	if _, err := eng.ExecSQL("CREATE TABLE t (x INTEGER); INSERT INTO t VALUES " + rows); err != nil {
		t.Fatal(err)
	}
	if capture {
		db.EnableCapture()
	}
	return db, eng
}

// TestDeleteReadsPreStatementState: the WHERE clause of a DELETE, subqueries
// included, sees the table as it was before the statement, so which rows go
// cannot depend on the order they are removed in. Here 2 and 3 each have a
// predecessor in the original table; only 1 survives.
func TestDeleteReadsPreStatementState(t *testing.T) {
	for _, capture := range []bool{false, true} {
		t.Run(fmt.Sprintf("capture=%v", capture), func(t *testing.T) {
			db, eng := deleteDB(t, capture, "(1), (2), (3)")
			res, err := eng.ExecSQL("DELETE FROM t WHERE EXISTS (SELECT * FROM t AS u WHERE u.x = t.x - 1)")
			if err != nil {
				t.Fatal(err)
			}
			if n := res[0].RowsAffected; n != 2 {
				t.Errorf("RowsAffected = %d, want 2", n)
			}
			if err := db.ApplyEvents(); err != nil {
				t.Fatal(err)
			}
			if got := tableBag(db, "t"); got != "[(1)]" {
				t.Errorf("t = %s after the DELETE, want [(1)]", got)
			}
		})
	}
}

// TestDeleteIsAllOrNothing: a DELETE whose WHERE clause fails on some row
// deletes nothing and, under capture, stages nothing — even the rows
// visited before the failing one.
func TestDeleteIsAllOrNothing(t *testing.T) {
	for _, capture := range []bool{false, true} {
		t.Run(fmt.Sprintf("capture=%v", capture), func(t *testing.T) {
			db, eng := deleteDB(t, capture, "(3), (2), (4)")
			_, err := eng.ExecSQL("DELETE FROM t WHERE 10 / (x - 2) > 0")
			if err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("err = %v, want division by zero", err)
			}
			if got := tableBag(db, "t"); got != "[(2) (3) (4)]" {
				t.Errorf("t = %s after the failed DELETE, want all three rows", got)
			}
			if capture {
				if got := tableBag(db, storage.DelTable("t")); got != "[]" {
					t.Errorf("del_t = %s after the failed DELETE, want empty", got)
				}
			}
		})
	}
}

// TestExplainRangeAccess: a bounded range on a declared-INTEGER column of a
// table source without an equality probe is reported as key-set access, the
// bounds in probe_exprs and every conjunct still under filters; a VARCHAR
// range scans and an equality probe wins over a range.
func TestExplainRangeAccess(t *testing.T) {
	db := storage.NewDB("d")
	eng := New(db)
	if _, err := eng.ExecSQL(`
		CREATE TABLE a (k INTEGER, s VARCHAR);
		CREATE TABLE b (k INTEGER, v INTEGER);
		CREATE VIEW joined AS SELECT * FROM a, b WHERE b.k BETWEEN a.k AND a.k + 2 AND 0 < b.v;
		CREATE VIEW text_range AS SELECT * FROM a WHERE a.s >= 'b' AND a.s < 'd';
		CREATE VIEW probed AS SELECT * FROM a, b WHERE b.v = a.k AND b.k >= 1 AND b.k <= 3;
	`); err != nil {
		t.Fatal(err)
	}
	source := func(view string, k int) ExplainSource {
		t.Helper()
		ep, err := eng.ExplainView(view)
		if err != nil {
			t.Fatal(err)
		}
		return ep.Branches[0].Sources[k]
	}
	b := source("joined", 1)
	if b.Access != "range" || !slices.Equal(b.ProbeColumns, []string{"k"}) ||
		!slices.Equal(b.ProbeExprs, []string{">= a.k", "<= a.k + 2"}) {
		t.Errorf("joined: b = %+v, want range access on k between a.k and a.k + 2", b)
	}
	if want := []string{"b.k >= a.k", "b.k <= a.k + 2", "0 < b.v"}; !slices.Equal(b.Filters, want) {
		t.Errorf("joined: b filters = %q, want %q", b.Filters, want)
	}
	if a := source("text_range", 0); a.Access != "scan" {
		t.Errorf("text_range: a = %+v, want a scan", a)
	}
	if b := source("probed", 1); b.Access != "probe" || !slices.Equal(b.ProbeColumns, []string{"v"}) {
		t.Errorf("probed: b = %+v, want the equality probe on v", b)
	}
}

// TestRangeDeleteIndependentOfTableSize: the same 10-key range DELETE, under
// capture, allocates exactly as much against a 1k-row table as against a
// 50k-row one, and visits only the rows in its range. Its WHERE clause leads
// with a correlated aggregate, evaluated per visited row, and then divides by
// k - 499, which fails on the one row just below the range: a level that
// scanned would visit that row, as the DisableIndexProbes run shows.
func TestRangeDeleteIndependentOfTableSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st, err := sqlparser.Parse("DELETE FROM t WHERE (SELECT COUNT(*) FROM t AS u WHERE u.k = t.k) = 1 AND 1 / (k - 499) > 0 AND k >= 500 AND k < 510")
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(rows int, scan bool) uint64 {
		db := storage.NewDB("d")
		eng := New(db)
		eng.DisableIndexProbes = scan
		if _, err := eng.ExecSQL("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)"); err != nil {
			t.Fatal(err)
		}
		tb := db.MustTable("t")
		for i := 0; i < rows; i++ {
			if err := tb.Insert(sqltypes.Row{sqltypes.NewInt(int64(i)), sqltypes.NewInt(int64(-i))}); err != nil {
				t.Fatal(err)
			}
		}
		if err := tb.EnsureIndex("k"); err != nil {
			t.Fatal(err)
		}
		db.EnableCapture()
		var res *ExecResult
		if scan {
			if _, err := eng.ExecStatement(st); err == nil || !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("a scanning DELETE returned %v, want the division by zero of the row below the range", err)
			}
			return 0
		}
		run := func() {
			if res, err = eng.ExecStatement(st); err != nil {
				panic(err)
			}
		}
		run() // builds del_t's identity index
		db.TruncateEvents()
		n := allocsDuring(run)
		if res.RowsAffected != 10 || db.MustTable(storage.DelTable("t")).Len() != 10 {
			t.Fatalf("%d rows: the DELETE affected %d rows, want 10", rows, res.RowsAffected)
		}
		return n
	}
	allocs(1000, true)
	if small, large := allocs(1000, false), allocs(50000, false); small != large {
		t.Fatalf("a 10-key range DELETE allocated %d times over 1k rows, %d over 50k", small, large)
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
