package storage

import (
	"encoding/gob"
	"fmt"
	"io"

	"tintin/internal/sqltypes"
)

// Event-batch wire format: the complete pending (normalized) event-table
// contents, gob-encoded. This is the WAL's record payload — the paper's
// event tables are the natural redo-log unit, so a record is simply "the
// batch safeCommit was about to apply", and replay is Decode+ApplyEvents.
type wireEventTable struct {
	Base string
	Ins  [][]wireValue
	Del  [][]wireValue
}

// HasPendingEvents reports whether any event table holds rows.
func (db *DB) HasPendingEvents() bool {
	withIns, withDel := db.PendingEvents()
	return len(withIns)+len(withDel) > 0
}

// EncodeEvents writes the pending event-table contents to w.
func (db *DB) EncodeEvents(w io.Writer) error {
	var out []wireEventTable
	for _, name := range db.BaseTableNames() {
		ins := db.tables[InsTable(name)]
		del := db.tables[DelTable(name)]
		insLen, delLen := 0, 0
		if ins != nil {
			insLen = ins.Len()
		}
		if del != nil {
			delLen = del.Len()
		}
		if insLen == 0 && delLen == 0 {
			continue
		}
		wt := wireEventTable{Base: name, Ins: make([][]wireValue, 0, insLen), Del: make([][]wireValue, 0, delLen)}
		collect := func(t *Table, dst *[][]wireValue) {
			if t == nil {
				return
			}
			t.Scan(func(r sqltypes.Row) bool {
				wr := make([]wireValue, len(r))
				for i, v := range r {
					wr[i] = toWire(v)
				}
				*dst = append(*dst, wr)
				return true
			})
		}
		collect(ins, &wt.Ins)
		collect(del, &wt.Del)
		out = append(out, wt)
	}
	return gob.NewEncoder(w).Encode(out)
}

// DecodeEvents reads an EncodeEvents payload and stages it into this
// database's event tables. The caller is expected to start from empty
// event tables (WAL replay truncates first — each record carries the
// complete pending set of its commit).
func (db *DB) DecodeEvents(r io.Reader) error {
	var in []wireEventTable
	if err := gob.NewDecoder(r).Decode(&in); err != nil {
		return fmt.Errorf("storage: event batch: %w", err)
	}
	for _, wt := range in {
		ins := db.tables[InsTable(wt.Base)]
		del := db.tables[DelTable(wt.Base)]
		if ins == nil || del == nil {
			return fmt.Errorf("storage: event batch: no event tables for %s", wt.Base)
		}
		stage := func(t *Table, rows [][]wireValue) error {
			for _, wr := range rows {
				row := make(sqltypes.Row, len(wr))
				for i, wv := range wr {
					v, err := fromWire(wv)
					if err != nil {
						return err
					}
					row[i] = v
				}
				if err := t.Insert(row); err != nil {
					return fmt.Errorf("storage: event batch: staging into %s: %w", t.Schema().Name, err)
				}
			}
			return nil
		}
		if err := stage(ins, wt.Ins); err != nil {
			return err
		}
		if err := stage(del, wt.Del); err != nil {
			return err
		}
	}
	return nil
}
