package storage

import (
	"bytes"
	"math"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

// kindsDB returns a database holding k(id INTEGER PRIMARY KEY, r REAL,
// s VARCHAR, b BOOLEAN), one column of every kind, with its event tables
// installed and capture on.
func kindsDB(tb testing.TB) *DB {
	tb.Helper()
	s, err := NewSchema("k", []Column{
		{Name: "id", Type: sqltypes.KindInt, NotNull: true},
		{Name: "r", Type: sqltypes.KindFloat},
		{Name: "s", Type: sqltypes.KindString},
		{Name: "b", Type: sqltypes.KindBool},
	}, []string{"id"}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	db := NewDB("d")
	if _, err := db.CreateTable(s); err != nil {
		tb.Fatal(err)
	}
	db.EnableCapture()
	return db
}

// edgeRows are k rows at the edges of every kind: the int64 extremes, -0, a
// NaN with a payload, infinities, empty strings, NUL and invalid UTF-8, NULLs.
func edgeRows() []sqltypes.Row {
	nan := math.Float64frombits(0x7ff8_0000_0000_beef)
	return []sqltypes.Row{
		{sqltypes.NewInt(math.MinInt64), sqltypes.NewFloat(math.Copysign(0, -1)), sqltypes.NewString(""), sqltypes.NewBool(false)},
		{sqltypes.NewInt(math.MaxInt64), sqltypes.NewFloat(nan), sqltypes.NewString("a\x00\xff"), sqltypes.Null},
		{sqltypes.NewInt(1<<53 + 1), sqltypes.NewFloat(math.Inf(-1)), sqltypes.Null, sqltypes.NewBool(true)},
		{sqltypes.NewInt(0), sqltypes.Null, sqltypes.NewString("'quoted'"), sqltypes.Null},
	}
}

// pendingEdgeEvents stages edgeRows as insertions and two of them as
// deletions into a kindsDB.
func pendingEdgeEvents(tb testing.TB) *DB {
	tb.Helper()
	db := kindsDB(tb)
	rows := edgeRows()
	for _, r := range rows {
		if err := db.Insert("k", r); err != nil {
			tb.Fatal(err)
		}
	}
	for _, r := range rows[1:3] {
		if err := db.Table(DelTable("k")).Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// savedEdgeDB is a kindsDB with edgeRows in the base table, one of them also
// pending as a deletion, and a view.
func savedEdgeDB(tb testing.TB) *DB {
	tb.Helper()
	db := kindsDB(tb)
	for _, r := range edgeRows() {
		if err := db.Table("k").Insert(r); err != nil {
			tb.Fatal(err)
		}
	}
	if _, err := db.DeleteWhere("k", func(r sqltypes.Row) bool { return r[0].Int() == 0 }); err != nil {
		tb.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect("SELECT k.id FROM k AS k WHERE k.b = TRUE")
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.CreateView("truek", sel); err != nil {
		tb.Fatal(err)
	}
	return db
}

// FuzzDecodeEvents feeds hostile bytes straight to the WAL record decoder,
// past the CRC a fuzzer could not forge. An input must either error or
// stage; what it stages must re-encode to a record that stages the same rows
// into a fresh database.
//
// Run with:
//
//	go test ./internal/storage -fuzz=FuzzDecodeEvents -fuzztime=60s
func FuzzDecodeEvents(f *testing.F) {
	var buf bytes.Buffer
	if err := pendingEdgeEvents(f).EncodeEvents(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{1, 1, 'k', 4, 1, 0x04, 2, 0x01, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0x02, 0, 0x00, 0})
	f.Add([]byte{2, 1, 'k', 4, 0, 0, 1, 'k', 4, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		db := kindsDB(t)
		if err := db.DecodeEvents(data); err != nil {
			return
		}
		var rec bytes.Buffer
		if err := db.EncodeEvents(&rec); err != nil {
			t.Fatal(err)
		}
		again := kindsDB(t)
		if err := again.DecodeEvents(rec.Bytes()); err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if a, b := db.appendSnapshot(nil), again.appendSnapshot(nil); !bytes.Equal(a, b) {
			t.Fatalf("staged state changed across a re-encode:\n% x\n% x", a, b)
		}
	})
}

// FuzzDecodeSnapshot feeds hostile bytes straight to the snapshot payload
// decoder, past the block's CRC. An input must either error or load; a loaded
// database must save to a payload that loads to a database saving the same
// bytes.
//
// Run with:
//
//	go test ./internal/storage -fuzz=FuzzDecodeSnapshot -fuzztime=60s
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(savedEdgeDB(f).appendSnapshot(nil))
	f.Add(pendingEdgeEvents(f).appendSnapshot(nil))
	f.Add(NewDB("").appendSnapshot(nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := decodeSnapshot(data)
		if err != nil {
			return
		}
		first := db.appendSnapshot(nil)
		again, err := decodeSnapshot(first)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not load: %v", err)
		}
		if second := again.appendSnapshot(nil); !bytes.Equal(first, second) {
			t.Fatalf("state changed across a re-encode:\n% x\n% x", first, second)
		}
	})
}
