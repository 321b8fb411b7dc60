package storage

import (
	"fmt"
	"io"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// Snapshot payload (the MagicDB block, version 3), in the sqltypes value
// codec:
//
//	database name, capture flag
//	base table count; per base table, sorted by name:
//	  name
//	  column count; per column: name, type (a wire tag), NOT NULL flag
//	  primary-key column names
//	  foreign-key count; per key: columns, referenced table, referenced columns
//	  row count, then every row's values back to back (the arity is the
//	  column count)
//	  under capture: its pending ins_T rows, then its del_T rows, each
//	  written the same way
//	view count; per view, in creation order: name, SELECT text
//
// Event tables are not listed: a base table's pair follows from the capture
// flag, which comes first so that loading creates each pair with its table.
// Views are persisted as SQL text and reparsed on load.

// Save writes a complete snapshot of the database (schemas, rows, views,
// capture flag) to w, framed as a checksummed block (see WriteBlock) so
// torn or corrupted files are detected on load. Together with Load it
// implements the demo's persistence story: TINTIN's generated artifacts
// survive in the database and the tool can be "disconnected".
func (db *DB) Save(w io.Writer) error {
	return WriteBlock(w, MagicDB, db.appendSnapshot(nil))
}

// appendSnapshot appends the snapshot payload to b.
func (db *DB) appendSnapshot(b []byte) []byte {
	b = sqltypes.AppendString(b, db.Name)
	b = sqltypes.AppendBool(b, db.capture)
	b = sqltypes.AppendCount(b, len(db.base))
	for _, t := range db.base {
		s := t.schema
		b = sqltypes.AppendString(b, s.Name)
		b = sqltypes.AppendCount(b, len(s.Columns))
		for _, c := range s.Columns {
			b = sqltypes.AppendString(b, c.Name)
			b = sqltypes.AppendKind(b, c.Type)
			b = sqltypes.AppendBool(b, c.NotNull)
		}
		b = sqltypes.AppendStrings(b, s.PrimaryKey)
		b = sqltypes.AppendCount(b, len(s.ForeignKeys))
		for _, fk := range s.ForeignKeys {
			b = sqltypes.AppendStrings(b, fk.Columns)
			b = sqltypes.AppendString(b, fk.RefTable)
			b = sqltypes.AppendStrings(b, fk.RefColumns)
		}
		b = t.appendRows(b)
		if db.capture {
			b = t.del.appendRows(t.ins.appendRows(b))
		}
	}
	b = sqltypes.AppendCount(b, len(db.viewOrder))
	for _, vn := range db.viewOrder {
		b = sqltypes.AppendString(b, vn)
		b = sqltypes.AppendString(b, sqlparser.FormatSelect(db.views[vn]))
	}
	return b
}

// Load reads a snapshot written by Save and returns the reconstructed
// database. Truncated or corrupted files fail with ErrSnapshotTruncated /
// ErrSnapshotCorrupt before any payload decoding is attempted; a payload that
// passes its checksum but does not decode fails with ErrSnapshotCorrupt.
func Load(r io.Reader) (*DB, error) {
	payload, err := ReadBlock(r, MagicDB)
	if err != nil {
		return nil, err
	}
	db, err := decodeSnapshot(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %s payload: %w", ErrSnapshotCorrupt, MagicDB, err)
	}
	return db, nil
}

// decodeSnapshot rebuilds a database from an appendSnapshot payload.
func decodeSnapshot(payload []byte) (*DB, error) {
	c := sqltypes.NewCursor(payload)
	db := NewDB(c.Str())
	if c.Bool() {
		db.EnableCapture()
	}
	for range c.Count(1) {
		if err := db.decodeTable(c); err != nil {
			return nil, err
		}
	}
	for range c.Count(1) {
		vn, sql := c.Str(), c.Str()
		if c.Err() != nil {
			break
		}
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			return nil, fmt.Errorf("view %s: %w", vn, err)
		}
		if err := db.CreateView(vn, sel); err != nil {
			return nil, err
		}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return db, nil
}

// decodeTable reads one base table's schema, rows and (under capture)
// pending events from c and creates it.
func (db *DB) decodeTable(c *sqltypes.Cursor) error {
	name := c.Str()
	cols := make([]Column, c.Count(3)) // a column is at least 3 bytes
	for i := range cols {
		cols[i] = Column{Name: c.Str(), Type: c.Kind(), NotNull: c.Bool()}
	}
	pk := c.Strs()
	fks := make([]ForeignKey, c.Count(3))
	for i := range fks {
		fks[i] = ForeignKey{Columns: c.Strs(), RefTable: c.Str(), RefColumns: c.Strs()}
	}
	if err := c.Err(); err != nil {
		return err
	}
	schema, err := NewSchema(name, cols, pk, fks)
	if err != nil {
		return err
	}
	t, err := db.CreateTable(schema)
	if err != nil {
		return err
	}
	if err := t.decodeRows(c); err != nil {
		return fmt.Errorf("table %s: %w", name, err)
	}
	if db.capture {
		return t.decodeEvents(c)
	}
	return nil
}

// appendRows appends the live row count, then every live row's values.
func (t *Table) appendRows(b []byte) []byte {
	b = sqltypes.AppendCount(b, t.live)
	for slot, r := range t.rows {
		if t.alive[slot] {
			b = sqltypes.AppendValues(b, r)
		}
	}
	return b
}

// decodeRows reads what appendRows wrote and inserts the rows into t. The
// rows share one backing array, each capped at its own values. That holds
// for a snapshot's base rows and for a WAL record's staged rows alike:
// ApplyEvents moves the latter into their base table, chunk and all.
func (t *Table) decodeRows(c *sqltypes.Cursor) error {
	arity := len(t.schema.Columns)
	vals := make([]sqltypes.Value, c.Count(arity)*arity) // a value is at least 1 byte
	c.Values(vals)
	if err := c.Err(); err != nil {
		return err
	}
	for i := 0; i < len(vals); i += arity {
		if err := t.Insert(vals[i : i+arity : i+arity]); err != nil {
			return err
		}
	}
	return nil
}
