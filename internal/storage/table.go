package storage

import (
	"fmt"

	"tintin/internal/sqltypes"
)

// Table is a tombstoned in-memory row store with hash indexes.
//
// Rows keep their slot for their lifetime; deletion marks a tombstone and
// recycles the slot on a free list. The primary key, the secondary indexes
// and the tuple-identity index are all one type, index, from a row's encoded
// key to the slots holding it. Every index is maintained eagerly on both
// insert and delete: lookups never write, which is what makes concurrent
// reading sound.
//
// Writes encode keys into the table's scratch buffer, and an index keeps its
// entries and emptied buckets through deletes and Truncate. A warm table
// therefore inserts and deletes without allocating, whether it is an event
// table truncated every commit or a base table whose old keys are deleted
// as new ones arrive.
//
// Concurrency: the read path touches no table-owned scratch, so any number of
// goroutines may read concurrently (Scan, Rows, Len, Index.ScanEqualScratch
// with per-caller scratch) as long as nothing mutates the table — an immutable
// snapshot view, which is exactly the state safeCommit's parallel check
// phase runs in. Mutations (Insert, Delete*, Truncate, index construction)
// and ContainsRow use the write scratch and require exclusive access.
type Table struct {
	schema *Schema

	rows  []sqltypes.Row
	alive []bool
	free  []int
	live  int

	pk      *index            // over schema.pkOffs, one slot per bucket; nil without a primary key
	indexes map[string]*index // column-set key -> secondary index
	// mutations counts row writes (insertValidated, deleteSlot, Truncate);
	// it only grows, so an unchanged count proves the rows are unchanged.
	mutations uint64

	// allCols is [0..len(columns)), precomputed for tuple-identity probes.
	allCols []int
	// idIx caches the tuple-identity index (all columns) once built.
	idIx *index
	// writeScratch is the key scratch of the write path (index.locate),
	// which requires exclusive access anyway. The concurrent read path
	// (Index.ScanEqualScratch) brings caller-owned scratch and never touches it.
	writeScratch []byte

	// ins and del are a base table's event pair, ins_T and del_T, once
	// capture is on (DB.EnableCapture); nil before, and nil on an event
	// table. insKeys is ins_T's index over this table's primary key, which
	// ValidateEvents reads for duplicates among the pending insertions; nil
	// without a primary key.
	ins, del *Table
	insKeys  *index
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
		t.pk = newIndex(t, schema.pkOffs)
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
	ix := newIndex(t, append([]int(nil), offs...))
	for slot, r := range t.rows {
		if t.alive[slot] {
			ix.add(r, slot)
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
// keys are rejected. The table keeps r itself unless CheckRow coerces it.
func (t *Table) Insert(r sqltypes.Row) error {
	_, err := t.insertRows([]sqltypes.Row{r})
	return err
}

// insertRows stores rows all or nothing, for DB.InsertRows. Every row is
// checked, and replaced by its coerced copy where CheckRow makes one, before
// any is stored; a duplicate key then removes the rows stored before it.
func (t *Table) insertRows(rows []sqltypes.Row) (int, error) {
	for i, r := range rows {
		checked, err := t.schema.CheckRow(r)
		if err != nil {
			return 0, err
		}
		rows[i] = checked
	}
	for i, r := range rows {
		if t.pk != nil && t.pk.rowBucket(r) != nil {
			// Last in, first out: the slots go back on the free list in
			// the order they came off it.
			for j := i - 1; j >= 0; j-- {
				slot, _ := t.slotOf(rows[j], t.pk)
				t.deleteSlot(slot)
			}
			return 0, fmt.Errorf("storage: table %s: duplicate primary key %s", t.Name(), r)
		}
		t.insertValidated(r)
	}
	return len(rows), nil
}

// insertValidated stores a row already proven to satisfy the schema and not
// to collide on the primary key (no CheckRow, no duplicate probe) in a free
// slot, and maintains every index.
func (t *Table) insertValidated(r sqltypes.Row) {
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
	t.mutations++
	if t.pk != nil {
		t.pk.add(r, slot)
	}
	for _, ix := range t.indexes {
		ix.add(r, slot)
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

// Rows returns the live rows in a new slice. The rows are the stored rows
// themselves, read-only like the rows Scan yields.
func (t *Table) Rows() []sqltypes.Row {
	out := make([]sqltypes.Row, 0, t.live)
	t.Scan(func(r sqltypes.Row) bool {
		out = append(out, r)
		return true
	})
	return out
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

// Keys returns the number of distinct keys the index holds. Like
// ScanEqualScratch it is read-only.
func (x *Index) Keys() int { return x.ix.n }

// ContainsEqual reports whether any live row matches vals at offs.
func (t *Table) ContainsEqual(offs []int, vals []sqltypes.Value) bool {
	return len(t.probeSlots(offs, vals)) > 0
}

// identityIndex resolves (building once) the all-columns index.
func (t *Table) identityIndex() *index {
	if t.idIx == nil {
		t.idIx = t.ensureIndexOffsets(t.allCols)
	}
	return t.idIx
}

// ContainsRow reports whether an identical row exists (tuple identity:
// NULL matches NULL). The identity index's bucket for r holds exactly the
// rows identical to r, since EncodeKey is injective and the index compares
// encoded keys. Write-path scratch: requires exclusive access.
func (t *Table) ContainsRow(r sqltypes.Row) bool {
	return len(r) == len(t.schema.Columns) && t.identityIndex().rowBucket(r) != nil
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
	b := t.identityIndex().rowBucket(r)
	if b == nil {
		return false
	}
	t.deleteSlot(b[0])
	return true
}

// removeRows deletes rows the table yielded since its last write, each from
// a slot holding that very row (its backing array, not an identical copy),
// so a bag's duplicates each lose exactly the copy that was read, and a row
// one bag holds in several slots loses one slot per read. A row is found
// through the primary key or the existing index with the smallest buckets; a
// table with neither is swept once. Nothing is built. It returns the number
// of rows removed.
func (t *Table) removeRows(rows []sqltypes.Row) int {
	ix := t.pk
	if ix == nil {
		if ix = t.narrowestIndex(); ix == nil {
			reads := make(map[*sqltypes.Value]int, len(rows))
			for _, r := range rows {
				if len(r) > 0 {
					reads[&r[0]]++
				}
			}
			return t.Delete(func(r sqltypes.Row) bool {
				if reads[&r[0]] == 0 {
					return false
				}
				reads[&r[0]]--
				return true
			})
		}
	}
	n := 0
	for _, r := range rows {
		if slot, ok := t.slotOf(r, ix); ok {
			t.deleteSlot(slot)
			n++
		}
	}
	return n
}

// slotOf locates, through ix, the live slot holding r itself.
func (t *Table) slotOf(r sqltypes.Row, ix *index) (int, bool) {
	if len(r) != len(t.schema.Columns) {
		return 0, false
	}
	for _, slot := range ix.rowBucket(r) {
		if &t.rows[slot][0] == &r[0] {
			return slot, true
		}
	}
	return 0, false
}

// narrowestIndex returns the secondary index with the most distinct keys, or
// nil when the table has none.
func (t *Table) narrowestIndex() *index {
	var best *index
	for _, ix := range t.indexes {
		if best == nil || ix.n > best.n {
			best = ix
		}
	}
	return best
}

func (t *Table) deleteSlot(slot int) {
	// Maintain every index eagerly, while the row is still in its slot (an
	// index verifies a hash match against its bucket's first row): a freed
	// slot may be reused by a row with the same key, so stale bucket entries
	// cannot be detected lazily.
	r := t.rows[slot]
	if t.pk != nil {
		t.pk.remove(r, slot)
	}
	for _, ix := range t.indexes {
		ix.remove(r, slot)
	}
	t.alive[slot] = false
	t.rows[slot] = nil
	t.free = append(t.free, slot)
	t.live--
	t.mutations++
}

// Truncate removes all rows. Every index is cleared in place: it keeps its
// entries and buckets across commits (an event table is truncated twice per
// commit), and Index handles stay valid. The dropped slots are cleared, so
// the kept array keeps no row alive: after a commit, del_T's slots held the
// base rows it deleted. A table without slots is already empty, indexes
// included, and returns at once: no row changes, so neither does the
// mutation count.
func (t *Table) Truncate() {
	if len(t.rows) == 0 {
		return
	}
	clear(t.rows)
	t.rows = t.rows[:0]
	t.alive = t.alive[:0]
	t.free = t.free[:0]
	t.live = 0
	t.mutations++
	if t.pk != nil {
		t.pk.clear()
	}
	for _, ix := range t.indexes {
		ix.clear()
	}
}
