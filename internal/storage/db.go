package storage

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// Event-table name prefixes, mirroring the paper's ins_T / del_T tables.
const (
	InsPrefix = "ins_"
	DelPrefix = "del_"
)

// InsTable returns the insertion event table name for base table t.
func InsTable(t string) string { return InsPrefix + t }

// DelTable returns the deletion event table name for base table t.
func DelTable(t string) string { return DelPrefix + t }

// IsEventTable reports whether name is an event table and returns the base
// table name.
func IsEventTable(name string) (base string, isIns, ok bool) {
	switch {
	case strings.HasPrefix(name, InsPrefix):
		return name[len(InsPrefix):], true, true
	case strings.HasPrefix(name, DelPrefix):
		return name[len(DelPrefix):], false, true
	}
	return "", false, false
}

// DB is a named collection of base tables and views with an optional
// event-capture mode.
//
// Under capture (TINTIN installed) a base table owns its event pair, ins_T
// and del_T: Insert and Delete do not touch the base table, insertions land
// in its ins_T and deletions in its del_T, exactly like the paper's INSTEAD
// OF triggers, and ApplyEvents later replays them onto the base table. The
// pair is created with its table and dropped with it; it is reached by
// pointer, and by name only through Table.
//
// Inside WhileFrozen — the only way to freeze it — the database is an
// immutable snapshot: its DB-level writes fail, and any number of
// goroutines may read it.
//
// Row ownership: a row handed to storage is the row storage keeps, through
// the commit and afterwards. Insert and InsertRows store the row itself
// (a copy only where CheckRow must coerce it), DeleteRows under capture
// stages the matched base row itself in del_T, and ApplyEvents moves each
// ins_T row into its base table. Storage never writes into a row, so rows
// may be shared, between tables and between databases; in return a caller
// must not change a row after handing it in. The rows storage yields (Scan,
// Rows, index probes) are read-only too.
type DB struct {
	Name string

	// tables holds the base tables by name, base the same tables sorted by
	// name. An event table is in neither: its base table owns it.
	tables map[string]*Table
	base   []*Table
	views  map[string]*sqlparser.Select
	// viewOrder keeps deterministic iteration for introspection commands.
	viewOrder []string

	capture bool
	// schemaVersion counts table-set changes; compiled query plans cache it
	// and re-plan when it moves (view redefinition is detected separately,
	// by definition identity).
	schemaVersion uint64

	// frozen marks the database as an immutable snapshot view: while set,
	// the DB-level write paths (Insert, DeleteWhere, DeleteRows, ApplyEvents,
	// TruncateEvents, NormalizeEvents) fail loudly. WhileFrozen is the only
	// way to set it: the parallel commit check runs its fan-out inside one,
	// so a stray write through those paths (a bug, by
	// construction) errors or panics instead of racing the readers. The
	// guard does not extend to direct Table-method mutations — callers
	// holding a *Table must not write during a fan-out.
	frozen atomic.Bool

	// validated is the generation at the last successful ValidateEvents;
	// ApplyEvents revalidates only when the generation has moved since.
	validated generation

	// encodeScratch is EncodeEvents' buffer, reused from one commit to the
	// next the way a table reuses its writeScratch.
	encodeScratch []byte
}

// generation identifies the row state: schemaVersion, which only grows, and
// the sum of every table's mutation counter, which only grows while
// schemaVersion stands still. An equal generation proves no table has been
// written since. (Zero is a database without tables: nothing to validate.)
type generation struct{ schema, mutations uint64 }

func (db *DB) generation() generation {
	g := generation{schema: db.schemaVersion}
	for _, t := range db.base {
		g.mutations += t.mutations
	}
	for _, t := range db.captured() {
		g.mutations += t.ins.mutations + t.del.mutations
	}
	return g
}

// captured returns the base tables whose event pairs the event loops walk:
// every base table under capture, none without.
func (db *DB) captured() []*Table {
	if db.capture {
		return db.base
	}
	return nil
}

// NewDB returns an empty database.
func NewDB(name string) *DB {
	return &DB{
		Name:   name,
		tables: make(map[string]*Table),
		views:  make(map[string]*sqlparser.Select),
	}
}

// CreateTable adds a base table with the given schema and, under capture,
// its event pair.
func (db *DB) CreateTable(s *Schema) (*Table, error) {
	if err := db.nameFree(s.Name); err != nil {
		return nil, err
	}
	t := NewTable(s)
	if db.capture {
		t.addEventPair()
	}
	db.tables[s.Name] = t
	i, _ := slices.BinarySearchFunc(db.base, s.Name, func(b *Table, name string) int { return strings.Compare(b.Name(), name) })
	db.base = slices.Insert(db.base, i, t)
	db.schemaVersion++
	return t, nil
}

// nameFree reports why name cannot name a new table or view: it is taken,
// or it carries an event-table prefix, which would shadow a pair.
func (db *DB) nameFree(name string) error {
	if _, _, isEvt := IsEventTable(name); isEvt {
		return fmt.Errorf("storage: %s: the prefixes %s and %s are reserved for event tables", name, InsPrefix, DelPrefix)
	}
	if _, isView := db.views[name]; isView || db.tables[name] != nil {
		return fmt.Errorf("storage: %s already exists", name)
	}
	return nil
}

// SchemaVersion identifies the current table set; it changes whenever a
// table is created or dropped, invalidating any cached query plan.
func (db *DB) SchemaVersion() uint64 { return db.schemaVersion }

// CreateTableFromAST creates a table from a parsed CREATE TABLE statement.
func (db *DB) CreateTableFromAST(ct *sqlparser.CreateTable) (*Table, error) {
	cols := make([]Column, len(ct.Columns))
	var pk []string
	for i, c := range ct.Columns {
		cols[i] = Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		if c.PrimaryKey {
			pk = append(pk, c.Name)
		}
	}
	if len(ct.PrimaryKey) > 0 {
		if len(pk) > 0 {
			return nil, fmt.Errorf("storage: table %s: both column-level and table-level PRIMARY KEY", ct.Name)
		}
		pk = ct.PrimaryKey
	}
	fks := make([]ForeignKey, len(ct.ForeignKeys))
	for i, fk := range ct.ForeignKeys {
		fks[i] = ForeignKey{Columns: fk.Columns, RefTable: fk.RefTable, RefColumns: fk.RefColumns}
	}
	schema, err := NewSchema(ct.Name, cols, pk, fks)
	if err != nil {
		return nil, err
	}
	return db.CreateTable(schema)
}

// DropTable removes a base table and its event pair. It is RESTRICT: a
// registered view that reads the table or its pair, or another table's
// foreign key into it, blocks the drop.
func (db *DB) DropTable(name string) error {
	name = strings.ToLower(name)
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("storage: no table %s", name)
	}
	for _, vn := range db.viewOrder {
		for _, ref := range sqlparser.TablesReferenced(db.views[vn]) {
			if base, _, _ := IsEventTable(ref); ref == name || base == name {
				return fmt.Errorf("storage: cannot drop table %s: view %s reads %s", name, vn, ref)
			}
		}
	}
	for _, other := range db.base {
		for _, fk := range other.schema.ForeignKeys {
			if fk.RefTable == name && other != t {
				return fmt.Errorf("storage: cannot drop table %s: table %s has a foreign key into it", name, other.Name())
			}
		}
	}
	delete(db.tables, name)
	db.base = slices.DeleteFunc(db.base, func(b *Table) bool { return b == t })
	db.schemaVersion++
	return nil
}

// Table returns the named table, or nil. An event-table name resolves
// through its base table: ins_t is t's insertion table while capture is on.
func (db *DB) Table(name string) *Table {
	name = strings.ToLower(name)
	base, isIns, isEvt := IsEventTable(name)
	if !isEvt {
		return db.tables[name]
	}
	t := db.tables[base]
	switch {
	case t == nil:
		return nil
	case isIns:
		return t.ins
	}
	return t.del
}

// MustTable returns the named table or panics; for tests and generators
// operating on schemas they just created.
func (db *DB) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic("storage: no table " + name)
	}
	return t
}

// TableNames returns every table name, event tables included, sorted.
func (db *DB) TableNames() []string {
	out := db.BaseTableNames()
	for _, t := range db.captured() {
		out = append(out, t.ins.Name(), t.del.Name())
	}
	slices.Sort(out)
	return out
}

// BaseTableNames returns the base tables' names in sorted order.
func (db *DB) BaseTableNames() []string {
	out := make([]string, len(db.base))
	for i, t := range db.base {
		out[i] = t.Name()
	}
	return out
}

// CreateView registers a named view.
func (db *DB) CreateView(name string, sel *sqlparser.Select) error {
	name = strings.ToLower(name)
	if err := db.nameFree(name); err != nil {
		return err
	}
	db.views[name] = sel
	db.viewOrder = append(db.viewOrder, name)
	return nil
}

// DropView removes a view.
func (db *DB) DropView(name string) error {
	name = strings.ToLower(name)
	if _, ok := db.views[name]; !ok {
		return fmt.Errorf("storage: no view %s", name)
	}
	delete(db.views, name)
	for i, n := range db.viewOrder {
		if n == name {
			db.viewOrder = append(db.viewOrder[:i], db.viewOrder[i+1:]...)
			break
		}
	}
	return nil
}

// View returns the named view definition, or nil.
func (db *DB) View(name string) *sqlparser.Select { return db.views[strings.ToLower(name)] }

// ViewNames returns view names in creation order.
func (db *DB) ViewNames() []string { return append([]string(nil), db.viewOrder...) }

// --- event capture ---

// EnableCapture turns event capture on for good: every base table gets its
// ins_T / del_T pair now, and a table created later gets it at creation.
func (db *DB) EnableCapture() {
	if !db.capture {
		db.capture = true
		for _, t := range db.base {
			t.addEventPair()
		}
		db.schemaVersion++
	}
}

// addEventPair gives base table t its empty ins_T and del_T. They have t's
// columns without keys or NOT NULL constraints: they hold pending,
// not-yet-validated tuples. Under a primary key, ins_T gets an index over the
// key's columns, which ValidateEvents reads.
func (t *Table) addEventPair() {
	cols := append([]Column(nil), t.schema.Columns...)
	for i := range cols {
		cols[i].NotNull = false
	}
	t.ins = NewTable(&Schema{Name: InsTable(t.Name()), Columns: cols, colIndex: t.schema.colIndex})
	t.del = NewTable(&Schema{Name: DelTable(t.Name()), Columns: cols, colIndex: t.schema.colIndex})
	if t.pk != nil {
		t.insKeys = t.ins.ensureIndexOffsets(t.schema.pkOffs)
	}
}

// WhileFrozen runs fn with the database frozen as an immutable snapshot
// view: Insert, DeleteWhere, DeleteRows and ApplyEvents fail while frozen,
// and the void-returning mutators (TruncateEvents, NormalizeEvents) panic —
// a write during an in-flight parallel check is a programming error by
// construction, and failing loudly beats silently racing the readers.
// The guard covers these DB-level paths (everything the engine and the
// tool write through), not direct Table-method mutations. Concurrent
// readers (scans and index probes with per-caller scratch) are safe over
// a frozen database; this is the contract the parallel commit-check
// scheduler relies on.
//
// The thaw is deferred, so a panic escaping fn cannot leave the database
// frozen. Calls do not nest: the inner call's thaw would end the outer
// freeze.
func (db *DB) WhileFrozen(fn func()) {
	db.frozen.Store(true)
	defer db.frozen.Store(false)
	fn()
}

// Frozen reports whether the database is currently an immutable snapshot.
func (db *DB) Frozen() bool { return db.frozen.Load() }

func (db *DB) writable(op string) error {
	if db.frozen.Load() {
		return fmt.Errorf("storage: %s on frozen database %s (a parallel check is in flight)", op, db.Name)
	}
	return nil
}

// mustBeWritable is the guard for mutators whose signature has no error to
// return: misuse while frozen panics rather than racing readers.
func (db *DB) mustBeWritable(op string) {
	if err := db.writable(op); err != nil {
		panic(err)
	}
}

// Insert stores a row in table name, or in its ins_T under capture. The
// table keeps r itself unless CheckRow must coerce it; see DB on row
// ownership.
func (db *DB) Insert(name string, r sqltypes.Row) error {
	_, err := db.InsertRows(name, []sqltypes.Row{r})
	return err
}

// InsertRows stores rows in table name, or in its ins_T under capture, all
// or nothing: every row passes CheckRow before any is stored, and a row that
// collides on the primary key removes the rows stored before it. Like
// Insert, it keeps each row itself (see DB on row ownership); where CheckRow
// coerces one, the coerced copy is stored and replaces it in rows.
func (db *DB) InsertRows(name string, rows []sqltypes.Row) (int, error) {
	t, err := db.writeTarget("Insert", name)
	if err != nil {
		return 0, err
	}
	if t.ins != nil {
		t = t.ins
	}
	return t.insertRows(rows)
}

// DeleteWhere removes the rows of table name that match, through
// DeleteRows: under capture they are staged in its del_T instead and the
// base table is left untouched. Returns the number of affected rows.
func (db *DB) DeleteWhere(name string, match func(sqltypes.Row) bool) (int, error) {
	var rows []sqltypes.Row
	if t := db.Table(name); t != nil {
		t.Scan(func(r sqltypes.Row) bool {
			if match(r) {
				rows = append(rows, r)
			}
			return true
		})
	}
	return db.DeleteRows(name, rows)
}

// DeleteRows removes rows from table name, where each row is one the table
// yielded (Scan, an index probe) with no write to the table since; under
// capture the rows themselves are staged in its del_T instead, once per
// distinct row, and the base table is left untouched (see DB on row
// ownership). It builds no index the table does not already have; its cost
// is linear in len(rows) unless it must delete from a table with neither a
// primary key nor an index, which it sweeps once. Returns the number of
// affected rows.
func (db *DB) DeleteRows(name string, rows []sqltypes.Row) (int, error) {
	t, err := db.writeTarget("DeleteRows", name)
	switch {
	case err != nil:
		return 0, err
	case t.del == nil:
		return t.removeRows(rows), nil
	}
	for _, r := range rows {
		if t.del.ContainsRow(r) {
			continue // capture is idempotent
		}
		if err := t.del.Insert(r); err != nil {
			return 0, err
		}
	}
	return len(rows), nil
}

// writeTarget resolves the table a write to name goes to: a base table with
// a pair stages the write there, any other table takes it directly.
func (db *DB) writeTarget(op, name string) (*Table, error) {
	if err := db.writable(op); err != nil {
		return nil, err
	}
	if t := db.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("storage: no table %s", name)
}

// PendingEvents reports the base tables that currently have pending
// insertions or deletions.
func (db *DB) PendingEvents() (withIns, withDel []string) {
	for _, t := range db.captured() {
		if t.ins.Len() > 0 {
			withIns = append(withIns, t.Name())
		}
		if t.del.Len() > 0 {
			withDel = append(withDel, t.Name())
		}
	}
	return withIns, withDel
}

// NormalizeEvents removes tuples that appear in both ins_T and del_T (their
// net effect is nil), establishing the disjointness the EDC substitution
// formulas assume. It returns the number of cancelled tuple pairs.
func (db *DB) NormalizeEvents() int {
	db.mustBeWritable("NormalizeEvents")
	cancelled := 0
	for _, t := range db.captured() {
		ins, del := t.ins, t.del
		if ins.Len() == 0 || del.Len() == 0 {
			continue
		}
		var dup []sqltypes.Row
		ins.Scan(func(r sqltypes.Row) bool {
			if del.ContainsRow(r) {
				dup = append(dup, r)
			}
			return true
		})
		// Cancel only a matched pair: an insertion repeated more often than
		// its deletion keeps the surplus copies.
		for _, r := range dup {
			if del.DeleteRow(r) && ins.DeleteRow(r) {
				cancelled++
			}
		}
	}
	return cancelled
}

// ValidateEvents proves, without applying anything, that replaying the
// pending events cannot fail mid-apply, so ApplyEvents is all-or-nothing:
// every pending insertion must satisfy the base schema, and with a declared
// primary key its key must be either absent from the base table or freed by
// a pending deletion, and not claimed twice within the pending insertions.
// These are exactly Table.Insert's failure modes, so a validated replay
// inserts without repeating them. Success stamps the current generation; the
// WAL appends only validated batches, so the log never holds a record the
// in-memory apply would then refuse.
func (db *DB) ValidateEvents() error {
	for _, base := range db.captured() {
		ins, del, name := base.ins, base.del, base.Name()
		if ins.Len() == 0 {
			continue
		}
		for slot, r := range ins.rows {
			if !ins.alive[slot] {
				continue
			}
			checked, err := base.schema.CheckRow(r)
			if err != nil {
				return fmt.Errorf("storage: applying events to %s: %w", name, err)
			}
			if base.pk == nil {
				continue
			}
			// Staged rows already carry the column types, so ins_T's index
			// over the key holds checked's key: the insertions that claim
			// it. The later of two in slot order is the one reported.
			if slices.ContainsFunc(base.insKeys.rowBucket(r), func(s int) bool { return s < slot }) {
				return fmt.Errorf("storage: applying events to %s: duplicate primary key %s among pending insertions", name, checked)
			}
			// The key is free unless a base row holds it; under a primary
			// key that row is unique, so it is freed exactly when a pending
			// deletion is identical to it.
			if held := base.pk.rowBucket(checked); held != nil && !del.ContainsRow(base.rows[held[0]]) {
				return fmt.Errorf("storage: applying events to %s: duplicate primary key %s", name, checked)
			}
		}
	}
	db.validated = db.generation()
	return nil
}

// ApplyEvents replays pending events onto the base tables (deletions first,
// then insertions) and truncates the event tables — the commit step of
// safeCommit. Each ins_T row moves into its base table uncopied (see DB on
// row ownership). The replay writes the base tables directly, never through
// the capturing DB.Insert, which is the paper's "disable the triggers,
// apply, re-enable" sequence. It is all-or-nothing: the batch is validated
// up front (unless ValidateEvents already proved it and no table has been
// written since), and on error the base tables and the pending events are
// both untouched.
func (db *DB) ApplyEvents() error {
	if err := db.writable("ApplyEvents"); err != nil {
		return err
	}
	if db.validated != db.generation() {
		if err := db.ValidateEvents(); err != nil {
			return err
		}
	}
	for _, base := range db.captured() {
		if base.del.Len() > 0 {
			base.del.Scan(func(r sqltypes.Row) bool {
				base.DeleteRow(r)
				return true
			})
		}
	}
	for _, base := range db.captured() {
		if base.ins.Len() > 0 {
			// Staged rows were CheckRow'd against the same column types on
			// the way in, and validation proved the keys: insert without
			// either.
			base.ins.Scan(func(r sqltypes.Row) bool {
				base.insertValidated(r)
				return true
			})
		}
	}
	db.TruncateEvents()
	return nil
}

// TruncateEvents clears every event table (the last step of safeCommit, and
// the rejection path).
func (db *DB) TruncateEvents() {
	db.mustBeWritable("TruncateEvents")
	for _, t := range db.captured() {
		t.ins.Truncate()
		t.del.Truncate()
	}
}

// CheckForeignKeys verifies every declared FK on the current base-table
// state, returning a description of each violation (used by tests and the
// baseline applier).
func (db *DB) CheckForeignKeys() []string {
	var issues []string
	for _, t := range db.base {
		name := t.Name()
		for _, fk := range t.Schema().ForeignKeys {
			ref := db.tables[fk.RefTable]
			if ref == nil {
				issues = append(issues, fmt.Sprintf("%s: FK references missing table %s", name, fk.RefTable))
				continue
			}
			srcOffs := make([]int, len(fk.Columns))
			for i, c := range fk.Columns {
				srcOffs[i] = t.Schema().ColumnIndex(c)
			}
			refOffs := make([]int, len(fk.RefColumns))
			for i, c := range fk.RefColumns {
				refOffs[i] = ref.Schema().ColumnIndex(c)
			}
			t.Scan(func(r sqltypes.Row) bool {
				vals := make([]sqltypes.Value, len(srcOffs))
				null := false
				for i, o := range srcOffs {
					vals[i] = r[o]
					null = null || r[o].IsNull()
				}
				if !null && !ref.ContainsEqual(refOffs, vals) {
					issues = append(issues, fmt.Sprintf("%s%s violates FK to %s", name, r, fk.RefTable))
				}
				return true
			})
		}
	}
	return issues
}

// Clone deep-copies the database (tables, event pairs, rows and views).
// Indexes are not copied; they rebuild lazily. Used by the non-incremental
// baseline to apply an update to a shadow state.
func (db *DB) Clone() *DB {
	nd := NewDB(db.Name)
	nd.capture = db.capture
	for _, t := range db.base {
		nt := NewTable(t.schema)
		nt.copyRows(t)
		if db.capture {
			nt.addEventPair()
			nt.ins.copyRows(t.ins)
			nt.del.copyRows(t.del)
		}
		nd.tables[t.Name()] = nt
		nd.base = append(nd.base, nt)
	}
	for name, v := range db.views {
		nd.views[name] = v
	}
	nd.viewOrder = append([]string(nil), db.viewOrder...)
	nd.schemaVersion = db.schemaVersion
	return nd
}

// copyRows copies src's rows into t, which has src's columns.
func (t *Table) copyRows(src *Table) {
	src.Scan(func(r sqltypes.Row) bool {
		t.insertValidated(r.Clone())
		return true
	})
}
