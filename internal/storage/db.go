package storage

import (
	"fmt"
	"sort"
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

// DB is a named collection of tables and views with an optional
// event-capture mode.
//
// With capture enabled (TINTIN installed), Insert and Delete do not touch
// the base tables: insertions land in ins_T and deletions in del_T, exactly
// like the paper's INSTEAD OF triggers. ApplyEvents later replays them onto
// the base tables.
type DB struct {
	Name string

	tables map[string]*Table
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
	// TruncateEvents, NormalizeEvents) fail loudly. The parallel
	// commit-check scheduler freezes the database for the duration of a
	// fan-out so a stray write through those paths (a bug, by
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
	for _, t := range db.tables {
		g.mutations += t.mutations
	}
	return g
}

// NewDB returns an empty database.
func NewDB(name string) *DB {
	return &DB{
		Name:   name,
		tables: make(map[string]*Table),
		views:  make(map[string]*sqlparser.Select),
	}
}

// CreateTable adds a table with the given schema.
func (db *DB) CreateTable(s *Schema) (*Table, error) {
	if _, exists := db.tables[s.Name]; exists {
		return nil, fmt.Errorf("storage: table %s already exists", s.Name)
	}
	if _, exists := db.views[s.Name]; exists {
		return nil, fmt.Errorf("storage: %s already exists as a view", s.Name)
	}
	t := NewTable(s)
	db.tables[s.Name] = t
	db.schemaVersion++
	return t, nil
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

// DropTable removes a table (and its event tables, if present).
func (db *DB) DropTable(name string) error {
	name = strings.ToLower(name)
	if _, ok := db.tables[name]; !ok {
		return fmt.Errorf("storage: no table %s", name)
	}
	delete(db.tables, name)
	delete(db.tables, InsTable(name))
	delete(db.tables, DelTable(name))
	db.schemaVersion++
	return nil
}

// Table returns the named table, or nil.
func (db *DB) Table(name string) *Table { return db.tables[strings.ToLower(name)] }

// MustTable returns the named table or panics; for tests and generators
// operating on schemas they just created.
func (db *DB) MustTable(name string) *Table {
	t := db.Table(name)
	if t == nil {
		panic("storage: no table " + name)
	}
	return t
}

// TableNames returns all table names in sorted order.
func (db *DB) TableNames() []string {
	out := make([]string, 0, len(db.tables))
	for n := range db.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// BaseTableNames returns the non-event tables in sorted order.
func (db *DB) BaseTableNames() []string {
	var out []string
	for n := range db.tables {
		if _, _, isEvt := IsEventTable(n); !isEvt {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// CreateView registers a named view.
func (db *DB) CreateView(name string, sel *sqlparser.Select) error {
	name = strings.ToLower(name)
	if _, exists := db.tables[name]; exists {
		return fmt.Errorf("storage: %s already exists as a table", name)
	}
	if _, exists := db.views[name]; exists {
		return fmt.Errorf("storage: view %s already exists", name)
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

// ForeignKeysInto returns, for every table, the foreign keys referencing ref.
func (db *DB) ForeignKeysInto(ref string) map[string][]ForeignKey {
	ref = strings.ToLower(ref)
	out := make(map[string][]ForeignKey)
	for name, t := range db.tables {
		for _, fk := range t.Schema().ForeignKeys {
			if fk.RefTable == ref {
				out[name] = append(out[name], fk)
			}
		}
	}
	return out
}

// --- event capture ---

// InstallEventTables creates ins_T / del_T for every base table that does
// not have them yet. Event tables have the base schema without keys or
// NOT NULL constraints (they hold pending, not-yet-validated tuples).
func (db *DB) InstallEventTables() error {
	for _, name := range db.BaseTableNames() {
		base := db.tables[name]
		for _, evt := range []string{InsTable(name), DelTable(name)} {
			if db.tables[evt] != nil {
				continue
			}
			s := base.Schema().Clone(evt)
			for i := range s.Columns {
				s.Columns[i].NotNull = false
			}
			if _, err := db.CreateTable(s); err != nil {
				return err
			}
		}
	}
	return nil
}

// SetCapture toggles event-capture mode. Enabling requires event tables.
func (db *DB) SetCapture(on bool) error {
	if on {
		for _, name := range db.BaseTableNames() {
			if db.tables[InsTable(name)] == nil || db.tables[DelTable(name)] == nil {
				return fmt.Errorf("storage: event tables for %s missing; call InstallEventTables first", name)
			}
		}
	}
	db.capture = on
	return nil
}

// CaptureEnabled reports whether updates are being captured.
func (db *DB) CaptureEnabled() bool { return db.capture }

// Freeze marks the database as an immutable snapshot view until Thaw:
// Insert, DeleteWhere, DeleteRows and ApplyEvents fail while frozen, and the
// void-returning mutators (TruncateEvents, NormalizeEvents) panic — a
// write during an in-flight parallel check is a programming error by
// construction, and failing loudly beats silently racing the readers.
// The guard covers these DB-level paths (everything the engine and the
// tool write through), not direct Table-method mutations. Concurrent
// readers (scans and index probes with per-caller scratch) are safe over
// a frozen database; this is the contract the parallel commit-check
// scheduler relies on.
func (db *DB) Freeze() { db.frozen.Store(true) }

// Thaw lifts a Freeze, re-enabling writes.
func (db *DB) Thaw() { db.frozen.Store(false) }

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

// Insert stores a row in table name, or in ins_name under capture.
func (db *DB) Insert(name string, r sqltypes.Row) error {
	if err := db.writable("Insert"); err != nil {
		return err
	}
	name = strings.ToLower(name)
	t := db.tables[name]
	if t == nil {
		return fmt.Errorf("storage: no table %s", name)
	}
	if _, _, isEvt := IsEventTable(name); db.capture && !isEvt {
		return db.tables[InsTable(name)].Insert(r)
	}
	return t.Insert(r)
}

// DeleteWhere removes rows matching match from table name; under capture the
// matching rows are copied into del_name instead and the base table is left
// untouched. Returns the number of affected rows.
func (db *DB) DeleteWhere(name string, match func(sqltypes.Row) bool) (int, error) {
	t, del, err := db.deleteTarget("DeleteWhere", name)
	switch {
	case err != nil:
		return 0, err
	case del == nil:
		return t.Delete(match), nil
	}
	n := 0
	t.Scan(func(r sqltypes.Row) bool {
		if match(r) {
			if err = stageDelete(del, r); err != nil {
				return false
			}
			n++
		}
		return true
	})
	return n, err
}

// DeleteRows removes rows from table name, where each row is one the table
// yielded (Scan, an index probe) with no write to the table since; under
// capture they are copied into del_name instead, as DeleteWhere does, and the
// base table is left untouched. It builds no index the table does not already
// have; its cost is linear in len(rows) unless it must delete from a table
// with neither a primary key nor an index, which it sweeps once. Returns the
// number of affected rows.
func (db *DB) DeleteRows(name string, rows []sqltypes.Row) (int, error) {
	t, del, err := db.deleteTarget("DeleteRows", name)
	switch {
	case err != nil:
		return 0, err
	case del == nil:
		return t.removeRows(rows), nil
	}
	for _, r := range rows {
		if err := stageDelete(del, r); err != nil {
			return 0, err
		}
	}
	return len(rows), nil
}

// deleteTarget resolves the table a delete from name removes rows from and,
// under capture of a base table, the del_ table they are staged in instead
// (nil otherwise).
func (db *DB) deleteTarget(op, name string) (t, del *Table, err error) {
	if err := db.writable(op); err != nil {
		return nil, nil, err
	}
	name = strings.ToLower(name)
	if t = db.tables[name]; t == nil {
		return nil, nil, fmt.Errorf("storage: no table %s", name)
	}
	if _, _, isEvt := IsEventTable(name); db.capture && !isEvt {
		del = db.tables[DelTable(name)]
	}
	return t, del, nil
}

// stageDelete copies r into del unless an identical row is staged already:
// capture is idempotent.
func stageDelete(del *Table, r sqltypes.Row) error {
	if del.ContainsRow(r) {
		return nil
	}
	return del.Insert(r.Clone())
}

// PendingEvents reports the base tables that currently have pending
// insertions or deletions.
func (db *DB) PendingEvents() (withIns, withDel []string) {
	for _, name := range db.BaseTableNames() {
		if t := db.tables[InsTable(name)]; t != nil && t.Len() > 0 {
			withIns = append(withIns, name)
		}
		if t := db.tables[DelTable(name)]; t != nil && t.Len() > 0 {
			withDel = append(withDel, name)
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
	for _, name := range db.BaseTableNames() {
		ins := db.tables[InsTable(name)]
		del := db.tables[DelTable(name)]
		if ins == nil || del == nil || ins.Len() == 0 || del.Len() == 0 {
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
	for _, name := range db.BaseTableNames() {
		ins := db.tables[InsTable(name)]
		if ins == nil || ins.Len() == 0 {
			continue
		}
		base := db.tables[name]
		del := db.tables[DelTable(name)]
		var seen map[string]struct{}
		if base.pkIndex != nil {
			seen = make(map[string]struct{}, ins.Len())
		}
		var verr error
		ins.Scan(func(r sqltypes.Row) bool {
			checked, err := base.schema.CheckRow(r)
			if err != nil {
				verr = fmt.Errorf("storage: applying events to %s: %w", name, err)
				return false
			}
			if seen == nil {
				return true
			}
			kb := base.keyOn(checked, base.schema.pkOffs)
			if _, dup := seen[string(kb)]; dup {
				verr = fmt.Errorf("storage: applying events to %s: duplicate primary key %s among pending insertions", name, checked)
				return false
			}
			seen[string(kb)] = struct{}{}
			// The key is free unless a base row holds it; under a primary
			// key that row is unique, so it is freed exactly when a pending
			// deletion is identical to it.
			if slot, exists := base.pkIndex[string(kb)]; exists && (del == nil || !del.ContainsRow(base.rows[slot])) {
				verr = fmt.Errorf("storage: applying events to %s: duplicate primary key %s", name, checked)
				return false
			}
			return true
		})
		if verr != nil {
			return verr
		}
	}
	db.validated = db.generation()
	return nil
}

// ApplyEvents replays pending events onto the base tables (deletions first,
// then insertions) and truncates the event tables — the commit step of
// safeCommit. The replay writes the base tables directly, never through the
// capturing DB.Insert, which is the paper's "disable the triggers, apply,
// re-enable" sequence. It is all-or-nothing: the batch is validated up front
// (unless ValidateEvents already proved it and no table has been written
// since), and on error the base tables and the pending events are both
// untouched.
func (db *DB) ApplyEvents() error {
	if err := db.writable("ApplyEvents"); err != nil {
		return err
	}
	if db.validated != db.generation() {
		if err := db.ValidateEvents(); err != nil {
			return err
		}
	}
	for _, name := range db.BaseTableNames() {
		base := db.tables[name]
		del := db.tables[DelTable(name)]
		if del != nil && del.Len() > 0 {
			del.Scan(func(r sqltypes.Row) bool {
				base.DeleteRow(r)
				return true
			})
		}
	}
	for _, name := range db.BaseTableNames() {
		base := db.tables[name]
		ins := db.tables[InsTable(name)]
		if ins == nil || ins.Len() == 0 {
			continue
		}
		// Staged rows were CheckRow'd against the same column types on the
		// way in, and validation proved the keys: insert without either.
		ins.Scan(func(r sqltypes.Row) bool {
			base.insertValidated(r.Clone())
			return true
		})
	}
	db.TruncateEvents()
	return nil
}

// TruncateEvents clears every event table (the last step of safeCommit, and
// the rejection path).
func (db *DB) TruncateEvents() {
	db.mustBeWritable("TruncateEvents")
	for _, name := range db.BaseTableNames() {
		if t := db.tables[InsTable(name)]; t != nil {
			t.Truncate()
		}
		if t := db.tables[DelTable(name)]; t != nil {
			t.Truncate()
		}
	}
}

// CheckForeignKeys verifies every declared FK on the current base-table
// state, returning a description of each violation (used by tests and the
// baseline applier).
func (db *DB) CheckForeignKeys() []string {
	var issues []string
	for _, name := range db.BaseTableNames() {
		t := db.tables[name]
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

// Clone deep-copies the database (tables, rows and views). Indexes are not
// copied; they rebuild lazily. Used by the non-incremental baseline to apply
// an update to a shadow state.
func (db *DB) Clone() *DB {
	nd := NewDB(db.Name)
	for name, t := range db.tables {
		nt := NewTable(t.Schema())
		t.Scan(func(r sqltypes.Row) bool {
			nt.insertValidated(r.Clone())
			return true
		})
		nd.tables[name] = nt
	}
	for name, v := range db.views {
		nd.views[name] = v
	}
	nd.viewOrder = append([]string(nil), db.viewOrder...)
	nd.capture = db.capture
	nd.schemaVersion = db.schemaVersion
	return nd
}
