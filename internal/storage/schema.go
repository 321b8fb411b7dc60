// Package storage implements the in-memory relational storage substrate:
// typed schemas with primary/foreign keys, tombstoned row stores, hash
// indexes, and a database catalog with the event-capture mode TINTIN relies
// on (INSERT/DELETE routed into ins_T / del_T auxiliary tables, standing in
// for the paper's INSTEAD OF triggers).
package storage

import (
	"fmt"
	"strings"

	"tintin/internal/sqltypes"
)

// Column describes one table column.
type Column struct {
	Name    string
	Type    sqltypes.Kind
	NotNull bool
}

// ForeignKey declares that Columns of the owning table reference
// RefColumns of RefTable.
type ForeignKey struct {
	Columns    []string
	RefTable   string
	RefColumns []string
}

// Schema is an immutable table description.
type Schema struct {
	Name        string
	Columns     []Column
	PrimaryKey  []string // empty when the table has no declared key
	ForeignKeys []ForeignKey

	colIndex map[string]int
	pkOffs   []int // PrimaryKey as column offsets, computed once
}

// NewSchema builds a schema and validates column/key references.
func NewSchema(name string, cols []Column, pk []string, fks []ForeignKey) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("storage: table name must not be empty")
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("storage: table %s has no columns", name)
	}
	s := &Schema{
		Name:        strings.ToLower(name),
		Columns:     make([]Column, len(cols)),
		PrimaryKey:  append([]string(nil), pk...),
		ForeignKeys: append([]ForeignKey(nil), fks...),
		colIndex:    make(map[string]int, len(cols)),
	}
	for i, c := range cols {
		c.Name = strings.ToLower(c.Name)
		if c.Name == "" {
			return nil, fmt.Errorf("storage: table %s: column %d has empty name", name, i)
		}
		if _, dup := s.colIndex[c.Name]; dup {
			return nil, fmt.Errorf("storage: table %s: duplicate column %s", name, c.Name)
		}
		s.Columns[i] = c
		s.colIndex[c.Name] = i
	}
	for i, k := range s.PrimaryKey {
		k = strings.ToLower(k)
		s.PrimaryKey[i] = k
		if _, ok := s.colIndex[k]; !ok {
			return nil, fmt.Errorf("storage: table %s: primary key column %s not found", name, k)
		}
		s.pkOffs = append(s.pkOffs, s.colIndex[k])
	}
	for fi := range s.ForeignKeys {
		fk := &s.ForeignKeys[fi]
		fk.RefTable = strings.ToLower(fk.RefTable)
		for i, c := range fk.Columns {
			c = strings.ToLower(c)
			fk.Columns[i] = c
			if _, ok := s.colIndex[c]; !ok {
				return nil, fmt.Errorf("storage: table %s: foreign key column %s not found", name, c)
			}
		}
		for i, c := range fk.RefColumns {
			fk.RefColumns[i] = strings.ToLower(c)
		}
		if len(fk.Columns) != len(fk.RefColumns) {
			return nil, fmt.Errorf("storage: table %s: foreign key arity mismatch", name)
		}
	}
	return s, nil
}

// ColumnIndex returns the offset of the named column, or -1.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.colIndex[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// ColumnNames returns the column names in order.
func (s *Schema) ColumnNames() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// PrimaryKeyOffsets returns the column offsets of the primary key (nil when
// no key is declared). The slice is shared: callers must not modify it.
func (s *Schema) PrimaryKeyOffsets() []int { return s.pkOffs }

// CheckRow validates arity, kinds and NOT NULL constraints, coercing
// numeric literals to the declared column type. It returns the
// (possibly coerced) row: r itself when nothing needs coercion, otherwise a
// copy. It never writes into r.
func (s *Schema) CheckRow(r sqltypes.Row) (sqltypes.Row, error) {
	if len(r) != len(s.Columns) {
		return nil, fmt.Errorf("storage: table %s expects %d values, got %d", s.Name, len(s.Columns), len(r))
	}
	out := r
	copied := false
	for i, v := range r {
		c := s.Columns[i]
		if v.IsNull() {
			if c.NotNull {
				return nil, fmt.Errorf("storage: table %s: column %s is NOT NULL", s.Name, c.Name)
			}
			continue
		}
		if v.Kind() != c.Type {
			cv, err := v.CoerceTo(c.Type)
			if err != nil {
				return nil, fmt.Errorf("storage: table %s: column %s: %v", s.Name, c.Name, err)
			}
			if !copied {
				out = r.Clone()
				copied = true
			}
			out[i] = cv
		}
	}
	return out, nil
}
