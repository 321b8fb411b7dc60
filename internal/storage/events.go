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
	n := 0
	for _, t := range db.captured() {
		if t.ins.Len()+t.del.Len() > 0 {
			n++
		}
	}
	b := sqltypes.AppendCount(db.encodeScratch[:0], n)
	for _, t := range db.captured() {
		if t.ins.Len()+t.del.Len() == 0 {
			continue
		}
		b = sqltypes.AppendString(b, t.Name())
		b = sqltypes.AppendCount(b, len(t.schema.Columns))
		b = t.ins.appendRows(b)
		b = t.del.appendRows(b)
	}
	db.encodeScratch = b
	_, err := w.Write(b)
	return err
}

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
		base := db.tables[name]
		if base == nil || !db.capture {
			return fmt.Errorf("storage: event batch: no event tables for %s", name)
		}
		if want := len(base.schema.Columns); arity != uint64(want) {
			return fmt.Errorf("storage: event batch: table %s has %d columns, the record says %d", name, want, arity)
		}
		if err := base.decodeEvents(c); err != nil {
			return fmt.Errorf("storage: event batch: %w", err)
		}
	}
	if err := c.Done(); err != nil {
		return fmt.Errorf("storage: event batch: %w", err)
	}
	return nil
}

// decodeEvents reads t's ins_T rows and then its del_T rows from c, each as
// appendRows wrote them, and stages them.
func (t *Table) decodeEvents(c *sqltypes.Cursor) error {
	for _, et := range [2]*Table{t.ins, t.del} {
		if err := et.decodeRows(c); err != nil {
			return fmt.Errorf("staging into %s: %w", et.Name(), err)
		}
	}
	return nil
}
