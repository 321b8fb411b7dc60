package storage

import (
	"fmt"
	"io"

	"tintin/internal/sqltypes"
)

// Event-batch payload, the WAL's record: the complete pending (normalized)
// event-table contents. The paper's event tables are the natural redo-log
// unit, so a record is simply "the batch safeCommit was about to apply", and
// replay is DecodeEvents+ApplyEvents. In the sqltypes value codec:
//
//	count of base tables with pending events; per table, sorted by name:
//	  base table name, column count
//	  ins_T rows, then del_T rows, each as appendRows writes them: a row
//	  count, then the rows' values back to back

// HasPendingEvents reports whether any event table holds rows.
func (db *DB) HasPendingEvents() bool {
	withIns, withDel := db.PendingEvents()
	return len(withIns)+len(withDel) > 0
}

// EncodeEvents writes the pending event-table contents to w in one Write. It
// encodes into a scratch buffer the database owns, so a warm encode allocates
// nothing per row; like the write path, it requires exclusive access.
func (db *DB) EncodeEvents(w io.Writer) error {
	names := db.BaseTableNames()
	n := 0
	for _, name := range names {
		if ins, del := db.eventTables(name); ins.Len()+del.Len() > 0 {
			n++
		}
	}
	b := sqltypes.AppendCount(db.encodeScratch[:0], n)
	for _, name := range names {
		ins, del := db.eventTables(name)
		if ins.Len()+del.Len() == 0 {
			continue
		}
		b = sqltypes.AppendString(b, name)
		b = sqltypes.AppendCount(b, len(db.tables[name].schema.Columns))
		b = ins.appendRows(b)
		b = del.appendRows(b)
	}
	db.encodeScratch = b
	_, err := w.Write(b)
	return err
}

// eventTables returns base table name's ins_T and del_T; an absent one is an
// empty stand-in, so callers need not check.
func (db *DB) eventTables(name string) (ins, del *Table) {
	ins, del = db.tables[InsTable(name)], db.tables[DelTable(name)]
	if ins == nil {
		ins = noEvents
	}
	if del == nil {
		del = noEvents
	}
	return ins, del
}

// noEvents stands in for an event table that was never installed.
var noEvents = &Table{}

// DecodeEvents stages an EncodeEvents payload into this database's event
// tables. The caller is expected to start from empty event tables (WAL replay
// truncates first — each record carries the complete pending set of its
// commit).
func (db *DB) DecodeEvents(payload []byte) error {
	c := sqltypes.NewCursor(payload)
	for range c.Count(1) {
		name, arity := c.Str(), c.Uvarint()
		if c.Err() != nil {
			break
		}
		ins, del := db.tables[InsTable(name)], db.tables[DelTable(name)]
		if ins == nil || del == nil {
			return fmt.Errorf("storage: event batch: no event tables for %s", name)
		}
		if want := len(ins.schema.Columns); arity != uint64(want) {
			return fmt.Errorf("storage: event batch: table %s has %d columns, the record says %d", name, want, arity)
		}
		for _, t := range [2]*Table{ins, del} {
			if err := t.decodeRows(c); err != nil {
				return fmt.Errorf("storage: event batch: staging into %s: %w", t.Name(), err)
			}
		}
	}
	if err := c.Done(); err != nil {
		return fmt.Errorf("storage: event batch: %w", err)
	}
	return nil
}
