package storage

import (
	"testing"

	"tintin/internal/sqltypes"
)

func iv(n int64) sqltypes.Value { return sqltypes.NewInt(n) }

func newIndexTestTable(t *testing.T) *Table {
	t.Helper()
	s, err := NewSchema("t", []Column{
		{Name: "a", Type: sqltypes.KindInt},
		{Name: "b", Type: sqltypes.KindInt},
	}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(s)
}

// lookupInts probes the index on column a and returns the b values found.
func lookupInts(tb *Table, a int64) []int64 {
	var out []int64
	for _, r := range tb.LookupEqual([]int{0}, []sqltypes.Value{iv(a)}) {
		out = append(out, r[1].Int())
	}
	return out
}

// TestIndexAfterDeleteRowSlotSwap drives the slot-recycling path: deleting a
// row swap-removes its slot from every index bucket and pushes the slot on
// the free list; the next insert reuses it. The index must neither drop
// surviving bucket entries during the swap nor keep a stale entry that now
// points at the recycled slot's new row.
func TestIndexAfterDeleteRowSlotSwap(t *testing.T) {
	tb := newIndexTestTable(t)
	if err := tb.EnsureIndex("a"); err != nil {
		t.Fatal(err)
	}
	// Three rows in one bucket (a=7), one in another (a=8).
	for _, r := range []sqltypes.Row{
		{iv(7), iv(1)}, {iv(7), iv(2)}, {iv(7), iv(3)}, {iv(8), iv(4)},
	} {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	// Delete the middle of the a=7 bucket: swap-remove inside the bucket.
	if !tb.DeleteRow(sqltypes.Row{iv(7), iv(2)}) {
		t.Fatal("DeleteRow missed an existing row")
	}
	got := lookupInts(tb, 7)
	if len(got) != 2 || !((got[0] == 1 && got[1] == 3) || (got[0] == 3 && got[1] == 1)) {
		t.Fatalf("after delete, a=7 bucket = %v, want {1,3}", got)
	}
	if tb.ContainsEqual([]int{0}, []sqltypes.Value{iv(7)}) != true {
		t.Fatal("ContainsEqual(a=7) = false, want true")
	}

	// Reuse the freed slot with a row under a different key: the a=7 bucket
	// must not resurrect the old entry, and a=9 must find the new row.
	if err := tb.Insert(sqltypes.Row{iv(9), iv(5)}); err != nil {
		t.Fatal(err)
	}
	if got := lookupInts(tb, 7); len(got) != 2 {
		t.Fatalf("after slot reuse, a=7 bucket = %v, want 2 entries", got)
	}
	if got := lookupInts(tb, 9); len(got) != 1 || got[0] != 5 {
		t.Fatalf("a=9 lookup = %v, want [5]", got)
	}

	// Reuse a freed slot with the SAME key as the deleted row: exactly one
	// entry for it, pointing at the new tuple.
	if !tb.DeleteRow(sqltypes.Row{iv(8), iv(4)}) {
		t.Fatal("DeleteRow missed a=8")
	}
	if tb.ContainsEqual([]int{0}, []sqltypes.Value{iv(8)}) {
		t.Fatal("ContainsEqual(a=8) = true after delete")
	}
	if err := tb.Insert(sqltypes.Row{iv(8), iv(6)}); err != nil {
		t.Fatal(err)
	}
	if got := lookupInts(tb, 8); len(got) != 1 || got[0] != 6 {
		t.Fatalf("a=8 lookup after reuse = %v, want [6]", got)
	}
}

// TestIndexAfterTruncate verifies Truncate empties every bucket and the
// index stays correct (and handle-stable) for rows inserted afterwards.
func TestIndexAfterTruncate(t *testing.T) {
	tb := newIndexTestTable(t)
	if err := tb.EnsureIndex("a"); err != nil {
		t.Fatal(err)
	}
	idx, err := tb.IndexOn([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := tb.Insert(sqltypes.Row{iv(i % 2), iv(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tb.Truncate()
	if tb.Len() != 0 {
		t.Fatalf("Len after truncate = %d", tb.Len())
	}
	if tb.ContainsEqual([]int{0}, []sqltypes.Value{iv(0)}) {
		t.Fatal("ContainsEqual found rows after Truncate")
	}
	if rows := tb.LookupEqual([]int{0}, []sqltypes.Value{iv(1)}); len(rows) != 0 {
		t.Fatalf("LookupEqual after truncate = %v", rows)
	}

	// Refill: both the table API and a pre-Truncate index handle must see
	// exactly the new rows.
	if err := tb.Insert(sqltypes.Row{iv(1), iv(42)}); err != nil {
		t.Fatal(err)
	}
	if got := lookupInts(tb, 1); len(got) != 1 || got[0] != 42 {
		t.Fatalf("lookup after refill = %v, want [42]", got)
	}
	n := 0
	var scratch []byte
	idx.ScanEqualScratch(&scratch, []sqltypes.Value{iv(1)}, nil, func(r sqltypes.Row) bool {
		n++
		if r[1].Int() != 42 {
			t.Fatalf("stale row %v via pre-truncate handle", r)
		}
		return true
	})
	if n != 1 {
		t.Fatalf("pre-truncate index handle saw %d rows, want 1", n)
	}
}

// TestScanEqualEarlyStopAndNull pins down the Index.ScanEqualScratch contract
// used by the join loop: early exit on yield=false, and NULL matching nothing
// under a plain equality.
func TestScanEqualEarlyStopAndNull(t *testing.T) {
	tb := newIndexTestTable(t)
	for i := int64(0); i < 5; i++ {
		if err := tb.Insert(sqltypes.Row{iv(1), iv(i)}); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := tb.IndexOn([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	n := 0
	idx.ScanEqualScratch(&scratch, []sqltypes.Value{iv(1)}, nil, func(sqltypes.Row) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("ScanEqualScratch visited %d rows after early stop, want 2", n)
	}
	idx.ScanEqualScratch(&scratch, []sqltypes.Value{sqltypes.Null}, nil, func(sqltypes.Row) bool {
		t.Fatal("NULL probe yielded a row")
		return false
	})
}

// TestScanEqualNullSafeMask: the mask decides, column by column, whether a
// NULL probe value is looked up (row identity) or matches nothing (SQL =).
func TestScanEqualNullSafeMask(t *testing.T) {
	tb := newIndexTestTable(t)
	null := sqltypes.Null
	for _, r := range []sqltypes.Row{{iv(1), null}, {null, iv(2)}, {null, null}, {iv(1), iv(2)}} {
		if err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := tb.IndexOn([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	var scratch []byte
	for _, tc := range []struct {
		vals []sqltypes.Value
		mask []bool
		want int
	}{
		{[]sqltypes.Value{iv(1), null}, nil, 0},
		{[]sqltypes.Value{iv(1), null}, []bool{false, false}, 0},
		{[]sqltypes.Value{iv(1), null}, []bool{false, true}, 1},
		{[]sqltypes.Value{iv(1), null}, []bool{true, false}, 0}, // the NULL sits under the plain column
		{[]sqltypes.Value{null, iv(2)}, []bool{true, false}, 1},
		{[]sqltypes.Value{null, null}, []bool{true, true}, 1},
		{[]sqltypes.Value{null, null}, []bool{true, false}, 0},
		{[]sqltypes.Value{iv(1), iv(2)}, []bool{true, true}, 1},
	} {
		n := 0
		idx.ScanEqualScratch(&scratch, tc.vals, tc.mask, func(r sqltypes.Row) bool {
			if !sqltypes.IdenticalRows(r, tc.vals) {
				t.Errorf("probe %v mask %v yielded %v", tc.vals, tc.mask, r)
			}
			n++
			return true
		})
		if n != tc.want {
			t.Errorf("probe %v mask %v: %d rows, want %d", tc.vals, tc.mask, n, tc.want)
		}
	}
}

// TestKeysBeyondFloat64Precision: two INTEGERs past 2^53 that round to the
// same float64 are different keys. The primary-key map and the hash-index
// buckets trust an encoded-key match without comparing values again.
func TestKeysBeyondFloat64Precision(t *testing.T) {
	s, err := NewSchema("t", []Column{
		{Name: "k", Type: sqltypes.KindInt},
		{Name: "v", Type: sqltypes.KindInt},
	}, []string{"k"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(s)
	const big = int64(1) << 53 // 9007199254740992
	if err := tb.Insert(sqltypes.Row{iv(big), iv(1)}); err != nil {
		t.Fatal(err)
	}
	if rows := tb.LookupEqual([]int{0}, []sqltypes.Value{iv(big + 1)}); len(rows) != 0 {
		t.Fatalf("probe for %d returned %v", big+1, rows)
	}
	if err := tb.Insert(sqltypes.Row{iv(big + 1), iv(2)}); err != nil {
		t.Fatalf("inserting primary key %d after %d: %v", big+1, big, err)
	}
	if rows := tb.LookupEqual([]int{0}, []sqltypes.Value{iv(big + 1)}); len(rows) != 1 || rows[0][1].Int() != 2 {
		t.Fatalf("probe for %d = %v, want the one row (…, 2)", big+1, rows)
	}
}
