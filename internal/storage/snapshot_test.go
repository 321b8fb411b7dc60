package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"tintin/internal/sqlparser"
	"tintin/internal/sqltypes"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db := newTestDB(t)
	if err := db.Insert("orders", row(1, 7, 1.5)); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("orders", sqltypes.Row{sqltypes.NewInt(2), sqltypes.Null, sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	db.EnableCapture()
	if err := db.Insert("orders", row(3, 3, 3.0)); err != nil { // pending event
		t.Fatal(err)
	}
	sel, err := sqlparser.ParseSelect("SELECT * FROM orders WHERE o_custkey = 7")
	if err != nil {
		t.Fatal(err)
	}
	if err := db.CreateView("v7", sel); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != db.Name || !got.capture {
		t.Errorf("db meta lost: name=%s capture=%v", got.Name, got.capture)
	}
	if got.MustTable("orders").Len() != 2 {
		t.Errorf("orders rows = %d, want 2", got.MustTable("orders").Len())
	}
	if got.MustTable("ins_orders").Len() != 1 {
		t.Errorf("pending events lost")
	}
	if got.View("v7") == nil {
		t.Error("view lost")
	}
	// NULLs survive.
	if !got.MustTable("orders").ContainsRow(sqltypes.Row{sqltypes.NewInt(2), sqltypes.Null, sqltypes.Null}) {
		t.Error("NULL row lost")
	}
	// Primary keys are enforced after load.
	if err := got.MustTable("orders").Insert(row(1, 0, 0.0)); err == nil {
		t.Error("PK not restored")
	}
	// Foreign keys survive.
	if len(got.MustTable("lineitem").Schema().ForeignKeys) != 1 {
		t.Error("FKs lost")
	}
}

func TestSnapshotBadInput(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage accepted")
	}
}

// corruptionFixture returns a valid snapshot byte stream.
func corruptionFixture(t *testing.T) []byte {
	t.Helper()
	db := newTestDB(t)
	for i := 1; i <= 20; i++ {
		if err := db.Insert("orders", row(i, i, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotTruncationDetected: every proper prefix of a snapshot must
// fail with the truncation sentinel, never a raw gob error or a success.
func TestSnapshotTruncationDetected(t *testing.T) {
	data := corruptionFixture(t)
	for _, cut := range []int{0, 3, 12, 13, 20, len(data) / 2, len(data) - 5, len(data) - 1} {
		if _, err := Load(bytes.NewReader(data[:cut])); !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("Load(prefix %d/%d) = %v, want ErrSnapshotTruncated", cut, len(data), err)
		}
	}
}

// TestSnapshotBitFlipDetected: flipping any byte after the magic must trip
// the checksum (or, within the length field, read as truncation); the
// error message carries the "tintin: snapshot" prefix users grep for.
func TestSnapshotBitFlipDetected(t *testing.T) {
	data := corruptionFixture(t)
	for _, off := range []int{4, 5, 9, 13, 40, len(data) / 2, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		_, err := Load(bytes.NewReader(mut))
		if err == nil {
			t.Errorf("Load with byte %d flipped succeeded", off)
			continue
		}
		if !errors.Is(err, ErrSnapshotCorrupt) && !errors.Is(err, ErrSnapshotTruncated) {
			t.Errorf("Load with byte %d flipped = %v, want a snapshot sentinel", off, err)
		}
		if !strings.Contains(err.Error(), "tintin: snapshot") {
			t.Errorf("error %q lacks the tintin: snapshot prefix", err)
		}
	}
}

// TestSnapshotCorruptLengthBounded: a length field inflated to 1<<60 must
// fail as truncation without attempting the giant allocation.
func TestSnapshotCorruptLengthBounded(t *testing.T) {
	data := append([]byte(nil), corruptionFixture(t)...)
	binary.LittleEndian.PutUint64(data[5:13], 1<<60)
	if _, err := Load(bytes.NewReader(data)); !errors.Is(err, ErrSnapshotTruncated) {
		t.Fatalf("Load = %v, want ErrSnapshotTruncated", err)
	}
}

func TestBlockRoundTripComposes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, "AAAA", []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlock(&buf, "BBBB", nil); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	a, err := ReadBlock(r, "AAAA")
	if err != nil || string(a) != "first" {
		t.Fatalf("block A = %q, %v", a, err)
	}
	b, err := ReadBlock(r, "BBBB")
	if err != nil || len(b) != 0 {
		t.Fatalf("block B = %q, %v", b, err)
	}
	// Wrong expected magic is corruption, not truncation.
	r2 := bytes.NewReader(buf.Bytes())
	if _, err := ReadBlock(r2, "BBBB"); !errors.Is(err, ErrSnapshotCorrupt) {
		t.Fatalf("magic mismatch = %v, want ErrSnapshotCorrupt", err)
	}
}

// TestSnapshotKeepsValuesExact: a value comes back from Save/Load with its
// kind and, for a REAL, its exact bits; pending events and the view too.
func TestSnapshotKeepsValuesExact(t *testing.T) {
	db := savedEdgeDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := db.appendSnapshot(nil), got.appendSnapshot(nil); !bytes.Equal(a, b) {
		t.Fatalf("state changed across Save/Load:\n% x\n% x", a, b)
	}
	var bits []uint64
	got.MustTable("k").Scan(func(r sqltypes.Row) bool {
		if r[1].Kind() == sqltypes.KindFloat {
			bits = append(bits, math.Float64bits(r[1].Float()))
		}
		return true
	})
	want := []uint64{1 << 63, 0x7ff8_0000_0000_beef, math.Float64bits(math.Inf(-1))}
	if !slices.Equal(bits, want) {
		t.Fatalf("REAL bits after Load = %x, want %x", bits, want)
	}
	if !got.MustTable("k").ContainsRow(edgeRows()[0]) || got.MustTable(DelTable("k")).Len() != 1 || got.View("truek") == nil {
		t.Fatal("rows, pending deletion or view lost")
	}
}

// oldBlock frames payload as a block of an earlier version: version 1 is
// what a gob-era Save wrote, version 2 what Save wrote while event tables
// were tables of their own.
func oldBlock(magic string, version byte, payload []byte) []byte {
	b := append([]byte(magic), version)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[4:], crc32.MakeTable(crc32.Castagnoli)))
}

// TestGobEraBlocksRejected: version 1 was gob and version 2 listed event
// tables as tables, and no reader for either is kept. A well-formed block of
// either version and either magic fails as corrupt, and says why.
func TestGobEraBlocksRejected(t *testing.T) {
	gobish := []byte{0x0c, 0xff, 0x81, 0x02, 0x01, 0x02, 0xff, 0x82, 0x00, 0x01, 0x0c, 0x00, 0x00}
	v2 := NewDB("d").appendSnapshot(nil) // an empty database reads the same in versions 2 and 3
	for _, old := range []struct {
		version byte
		payload []byte
		says    string
	}{
		{1, gobish, "gob-era snapshots are no longer read"},
		{2, v2, "version-2 snapshots are no longer read"},
	} {
		for _, magic := range []string{MagicDB, MagicAssertions} {
			_, err := ReadBlock(bytes.NewReader(oldBlock(magic, old.version, old.payload)), magic)
			if !errors.Is(err, ErrSnapshotCorrupt) {
				t.Fatalf("%s v%d block: err = %v, want ErrSnapshotCorrupt", magic, old.version, err)
			}
			for _, want := range []string{magic, fmt.Sprintf("version %d", old.version), old.says} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s v%d block: error %q does not mention %q", magic, old.version, err, want)
				}
			}
		}
		if _, err := Load(bytes.NewReader(oldBlock(MagicDB, old.version, old.payload))); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("Load of a v%d snapshot = %v, want ErrSnapshotCorrupt", old.version, err)
		}
	}
}

// TestDecodeHugeCountsFailFast: a count of 1<<62 in a record or a snapshot —
// tables, rows, columns, string bytes — errors before anything sized by it is
// allocated.
func TestDecodeHugeCountsFailFast(t *testing.T) {
	huge := func(b []byte) []byte { return binary.AppendUvarint(b, 1<<62) }
	eventsHead := sqltypes.AppendCount(sqltypes.AppendString(sqltypes.AppendCount(nil, 1), "k"), 4)
	dbHead := sqltypes.AppendCount(sqltypes.AppendBool(sqltypes.AppendString(nil, "d"), false), 1)
	tableHead := sqltypes.AppendCount(sqltypes.AppendString(dbHead, "t"), 1)
	tableHead = sqltypes.AppendBool(sqltypes.AppendKind(sqltypes.AppendString(tableHead, "a"), sqltypes.KindInt), false)
	tableHead = sqltypes.AppendCount(sqltypes.AppendStrings(tableHead, nil), 0)

	events := map[string][]byte{
		"table count":   huge(nil),
		"name length":   huge(sqltypes.AppendCount(nil, 1)),
		"ins row count": huge(eventsHead),
		"del row count": huge(sqltypes.AppendCount(eventsHead, 0)),
	}
	snapshots := map[string][]byte{
		"db name length": huge(nil),
		"table count":    huge(sqltypes.AppendBool(sqltypes.AppendString(nil, "d"), false)),
		"column count":   huge(sqltypes.AppendString(dbHead, "t")),
		"row count":      huge(tableHead),
		"view count":     huge(sqltypes.AppendCount(tableHead, 0)),
	}
	check := func(kind, name string, decode func() error) {
		var err error
		n := bytesDuring(func() { err = decode() })
		if err == nil {
			t.Errorf("%s with a huge %s decoded", kind, name)
		}
		if !raceEnabled && n > 1<<16 {
			t.Errorf("%s with a huge %s: %d bytes allocated before failing", kind, name, n)
		}
	}
	for name, payload := range events {
		db := kindsDB(t)
		check("event record", name, func() error { return db.DecodeEvents(payload) })
	}
	for name, payload := range snapshots {
		check("snapshot", name, func() error { _, err := decodeSnapshot(payload); return err })
	}
}

// bytesDuring reports the heap bytes allocated while f runs.
func bytesDuring(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
