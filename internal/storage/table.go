package storage

import (
	"fmt"

	"tintin/internal/sqltypes"
)

// Table is a tombstoned in-memory row store with hash indexes.
//
// Rows keep their slot for their lifetime; deletion marks a tombstone and
// recycles the slot on a free list. Indexes map encoded key bytes to slot
// lists and are maintained eagerly on both insert and delete — lookups
// never write, which is what makes concurrent reading sound.
//
// Concurrency: a Table holds no internal scratch state, so any number of
// goroutines may read concurrently (Scan, Rows, Len, Index.ScanEqualScratch
// with per-caller scratch) as long as nothing mutates the table — an immutable
// snapshot view, which is exactly the state safeCommit's parallel check
// phase runs in. Mutations (Insert, Delete*, Truncate, index construction)
// require exclusive access.
type Table struct {
	schema *Schema

	rows  []sqltypes.Row
	alive []bool
	free  []int
	live  int

	pkIndex  map[string]int    // primary key -> slot (only when PK declared)
	indexes  map[string]*index // column-set key -> secondary index
	lastSlot int               // slot used by the most recent insertRaw

	// allCols is [0..len(columns)), precomputed for tuple-identity probes.
	allCols []int
	// idIx caches the tuple-identity index (all columns) once built.
	idIx *index
	// writeScratch is key-encoding scratch for the write path only
	// (Insert/Delete/ContainsRow), which requires exclusive access anyway.
	// The concurrent read path (Index.ScanEqualScratch) brings caller-owned
	// scratch and never touches it.
	writeScratch []byte
}

type index struct {
	cols  []int
	slots map[string][]int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema *Schema) *Table {
	t := &Table{
		schema:  schema,
		indexes: make(map[string]*index),
		allCols: make([]int, len(schema.Columns)),
	}
	for i := range t.allCols {
		t.allCols[i] = i
	}
	if len(schema.PrimaryKey) > 0 {
		t.pkIndex = make(map[string]int)
	}
	return t
}

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// Name returns the table name.
func (t *Table) Name() string { return t.schema.Name }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.live }

func indexKey(cols []int) string {
	b := make([]byte, 0, len(cols)*3)
	for _, c := range cols {
		b = append(b, byte(c>>8), byte(c), ':')
	}
	return string(b)
}

// EnsureIndex builds a hash index over the named columns if one does not
// already exist.
func (t *Table) EnsureIndex(cols ...string) error {
	offs := make([]int, len(cols))
	for i, c := range cols {
		off := t.schema.ColumnIndex(c)
		if off < 0 {
			return fmt.Errorf("storage: table %s: no column %s to index", t.Name(), c)
		}
		offs[i] = off
	}
	t.ensureIndexOffsets(offs)
	return nil
}

func (t *Table) ensureIndexOffsets(offs []int) *index {
	key := indexKey(offs)
	if ix, ok := t.indexes[key]; ok {
		return ix
	}
	ix := &index{cols: append([]int(nil), offs...), slots: make(map[string][]int)}
	for slot, r := range t.rows {
		if t.alive[slot] {
			k := r.KeyOn(ix.cols)
			ix.slots[k] = append(ix.slots[k], slot)
		}
	}
	t.indexes[key] = ix
	return ix
}

// HasIndexOn reports whether an index over exactly these column offsets exists.
func (t *Table) HasIndexOn(offs []int) bool {
	_, ok := t.indexes[indexKey(offs)]
	return ok
}

// Insert validates and stores a row. With a declared primary key, duplicate
// keys are rejected.
func (t *Table) Insert(r sqltypes.Row) error {
	r, err := t.schema.CheckRow(r)
	if err != nil {
		return err
	}
	if t.pkIndex != nil {
		k := r.KeyOn(t.schema.PrimaryKeyOffsets())
		if _, dup := t.pkIndex[k]; dup {
			return fmt.Errorf("storage: table %s: duplicate primary key %s", t.Name(), r)
		}
		defer func() { t.pkIndex[k] = t.lastSlot }()
	}
	t.insertRaw(r)
	return nil
}

func (t *Table) insertRaw(r sqltypes.Row) {
	var slot int
	if n := len(t.free); n > 0 {
		slot = t.free[n-1]
		t.free = t.free[:n-1]
		t.rows[slot] = r
		t.alive[slot] = true
	} else {
		slot = len(t.rows)
		t.rows = append(t.rows, r)
		t.alive = append(t.alive, true)
	}
	t.live++
	t.lastSlot = slot
	for _, ix := range t.indexes {
		k := r.KeyOn(ix.cols)
		ix.slots[k] = append(ix.slots[k], slot)
	}
}

// Scan calls yield for every live row; returning false stops the scan.
// The yielded row must not be mutated.
func (t *Table) Scan(yield func(sqltypes.Row) bool) {
	for slot, r := range t.rows {
		if t.alive[slot] {
			if !yield(r) {
				return
			}
		}
	}
}

// RowRange is a half-open slot interval [Start, End) of a table: the unit
// the parallel commit-check scheduler hands to one partition subtask. Slot
// bounds — not row counts — make a range a stable handle: slots keep their
// position for the lifetime of the table, so over a frozen (quiescent)
// table a range always denotes the same rows.
type RowRange struct {
	Start, End int
}

// Partitions splits the table's live rows into at most k contiguous slot
// ranges of near-equal live-row counts (every range within one row of the
// others, tombstones distributed wherever they happen to sit). The ranges
// are disjoint, cover every slot, and scanning them in order visits exactly
// the rows Scan visits, in the same order — the property the partitioned
// commit check's deterministic merge relies on. Fewer than k ranges are
// returned when the table has fewer than k live rows. Read-only: safe on a
// frozen table.
func (t *Table) Partitions(k int) []RowRange {
	if k > t.live {
		k = t.live
	}
	if k <= 1 {
		return []RowRange{{0, len(t.rows)}}
	}
	out := make([]RowRange, 0, k)
	per, extra := t.live/k, t.live%k
	target := per + 1 // the first `extra` ranges carry the remainder
	if extra == 0 {
		target = per
	}
	start, n := 0, 0
	for slot := range t.rows {
		if !t.alive[slot] {
			continue
		}
		n++
		if n == target && len(out) < k-1 {
			out = append(out, RowRange{start, slot + 1})
			start, n = slot+1, 0
			if len(out) >= extra {
				target = per
			} else {
				target = per + 1
			}
		}
	}
	return append(out, RowRange{start, len(t.rows)})
}

// ScanRange is Scan restricted to the slots of r: it yields every live row
// whose slot lies in [r.Start, r.End), in slot order. Like Scan it is
// read-only and safe for concurrent use over a quiescent table.
func (t *Table) ScanRange(r RowRange, yield func(sqltypes.Row) bool) {
	end := r.End
	if end > len(t.rows) {
		end = len(t.rows)
	}
	for slot := r.Start; slot < end; slot++ {
		if t.alive[slot] {
			if !yield(t.rows[slot]) {
				return
			}
		}
	}
}

// Rows returns a snapshot copy of all live rows.
func (t *Table) Rows() []sqltypes.Row {
	out := make([]sqltypes.Row, 0, t.live)
	t.Scan(func(r sqltypes.Row) bool {
		out = append(out, r)
		return true
	})
	return out
}

// lookup returns the index's bucket for vals. nullSafe[i] says how a NULL in
// vals[i] compares: under a plain equality it equals nothing, so the bucket
// is nil; under a NULL-safe one (row identity, where NULL matches NULL) it is
// looked up like any other value, which works because EncodeKey encodes NULL
// and the index is maintained over every row. A nil mask means all plain.
// The probe key is encoded into *scratch, which is grown and written back so
// a caller reusing one scratch across probes never allocates. lookup itself
// is read-only: safe for concurrent use as long as each caller brings its own
// scratch and the table is not being mutated.
func (ix *index) lookup(scratch *[]byte, vals []sqltypes.Value, nullSafe []bool) []int {
	kb := (*scratch)[:0]
	for i, v := range vals {
		if v.IsNull() && (nullSafe == nil || !nullSafe[i]) {
			return nil
		}
		kb = v.EncodeKey(kb)
	}
	*scratch = kb
	return ix.slots[string(kb)]
}

// probeSlots resolves (building if needed) the index on offs and probes it.
// Building is a mutation; this path is for cold callers with exclusive
// access (the hot path holds an Index handle and brings its own scratch).
func (t *Table) probeSlots(offs []int, vals []sqltypes.Value) []int {
	var scratch []byte
	return t.ensureIndexOffsets(offs).lookup(&scratch, vals, nil)
}

// LookupEqual returns the live rows whose columns at offs equal vals,
// using (and if needed building) a hash index.
func (t *Table) LookupEqual(offs []int, vals []sqltypes.Value) []sqltypes.Row {
	slots := t.probeSlots(offs, vals)
	if len(slots) == 0 {
		return nil
	}
	out := make([]sqltypes.Row, 0, len(slots))
	for _, s := range slots {
		out = append(out, t.rows[s])
	}
	return out
}

// Index is a stable handle on one hash index, letting compiled query plans
// probe repeatedly without re-resolving the column set. The handle stays
// valid for the lifetime of the table: Truncate and row churn update the
// underlying buckets in place.
//
// The handle holds no scratch state, so one Index may be shared by any
// number of concurrent readers (each bringing its own scratch buffer via
// ScanEqualScratch) while the table is quiescent.
type Index struct {
	t  *Table
	ix *index
}

// IndexOn builds (if needed) the index over the columns at offs and
// returns a handle on it.
func (t *Table) IndexOn(offs []int) (*Index, error) {
	for _, o := range offs {
		if o < 0 || o >= len(t.schema.Columns) {
			return nil, fmt.Errorf("storage: table %s: column offset %d out of range", t.Name(), o)
		}
	}
	return &Index{t: t, ix: t.ensureIndexOffsets(offs)}, nil
}

// ScanEqualScratch probes the index for vals and yields each matching live
// row without materializing a result slice; returning false stops the scan.
// A NULL in vals[i] matches nothing unless nullSafe[i] is set, in which case
// it matches the rows holding NULL in that column (nil: no column is
// NULL-safe). The key is encoded into the caller-owned scratch, so a hot loop
// reusing one scratch probes without allocating. It is strictly read-only:
// concurrent callers with private scratch buffers are safe over a quiescent
// table. yield must not mutate the table.
func (x *Index) ScanEqualScratch(scratch *[]byte, vals []sqltypes.Value, nullSafe []bool, yield func(sqltypes.Row) bool) {
	for _, s := range x.ix.lookup(scratch, vals, nullSafe) {
		if !yield(x.t.rows[s]) {
			return
		}
	}
}

// ContainsEqual reports whether any live row matches vals at offs.
func (t *Table) ContainsEqual(offs []int, vals []sqltypes.Value) bool {
	return len(t.probeSlots(offs, vals)) > 0
}

// identityKey encodes the whole row into the write-path scratch for the
// tuple-identity index (NULL encodes like any other value, so NULL matches
// NULL, agreeing with IdenticalRows).
func (t *Table) identityKey(r sqltypes.Row) []byte {
	kb := t.writeScratch[:0]
	for _, v := range r {
		kb = v.EncodeKey(kb)
	}
	t.writeScratch = kb
	return kb
}

// identityIndex resolves (building once) the all-columns index.
func (t *Table) identityIndex() *index {
	if t.idIx == nil {
		t.idIx = t.ensureIndexOffsets(t.allCols)
	}
	return t.idIx
}

// ContainsRow reports whether an identical row exists (tuple identity:
// NULL matches NULL). Write-path scratch: requires exclusive access.
func (t *Table) ContainsRow(r sqltypes.Row) bool {
	if len(r) != len(t.schema.Columns) {
		return false
	}
	ix := t.identityIndex()
	for _, s := range ix.slots[string(t.identityKey(r))] {
		if sqltypes.IdenticalRows(t.rows[s], r) {
			return true
		}
	}
	return false
}

// Delete removes every live row for which match returns true and reports
// how many were removed.
func (t *Table) Delete(match func(sqltypes.Row) bool) int {
	n := 0
	for slot, r := range t.rows {
		if t.alive[slot] && match(r) {
			t.deleteSlot(slot)
			n++
		}
	}
	return n
}

// DeleteRow removes one row identical to r, reporting whether one was
// found. It probes the all-columns hash index (tuple identity treats NULL
// as identical to NULL, and the key encoding agrees), so bulk event
// application stays linear in the update size rather than the table size.
func (t *Table) DeleteRow(r sqltypes.Row) bool {
	if len(r) != len(t.schema.Columns) {
		return false
	}
	ix := t.identityIndex()
	for _, s := range ix.slots[string(t.identityKey(r))] {
		if sqltypes.IdenticalRows(t.rows[s], r) {
			t.deleteSlot(s)
			return true
		}
	}
	return false
}

func (t *Table) deleteSlot(slot int) {
	r := t.rows[slot]
	t.alive[slot] = false
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
	if t.pkIndex != nil {
		delete(t.pkIndex, r.KeyOn(t.schema.PrimaryKeyOffsets()))
	}
	// Maintain secondary indexes eagerly: a freed slot may be reused by a
	// row with the same key, so stale bucket entries cannot be detected
	// lazily.
	for _, ix := range t.indexes {
		k := r.KeyOn(ix.cols)
		bucket := ix.slots[k]
		for i, s := range bucket {
			if s == slot {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(ix.slots, k)
		} else {
			ix.slots[k] = bucket
		}
	}
}

// Truncate removes all rows and resets indexes.
func (t *Table) Truncate() {
	t.rows = t.rows[:0]
	t.alive = t.alive[:0]
	t.free = t.free[:0]
	t.live = 0
	if t.pkIndex != nil {
		t.pkIndex = make(map[string]int)
	}
	for _, ix := range t.indexes {
		ix.slots = make(map[string][]int)
	}
}
