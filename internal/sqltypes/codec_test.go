package sqltypes

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestValueCodecFormat pins the encoding of every kind byte for byte: the
// bytes are a persisted format, and a change here makes existing WAL records
// and snapshots unreadable.
func TestValueCodecFormat(t *testing.T) {
	for _, c := range []struct {
		v    Value
		want []byte
	}{
		{Null, []byte{0x00}},
		{NewFloat(1), []byte{0x01, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f}},
		{NewString("ab"), []byte{0x02, 2, 'a', 'b'}},
		{NewBool(false), []byte{0x03, 0}},
		{NewBool(true), []byte{0x03, 1}},
		{NewInt(0), []byte{0x04, 0}},
		{NewInt(-1), []byte{0x04, 1}},
		{NewInt(64), []byte{0x04, 0x80, 0x01}},
	} {
		if got := AppendValue(nil, c.v); !bytes.Equal(got, c.want) {
			t.Errorf("AppendValue(%s) = % x, want % x", c.v, got, c.want)
		}
	}
	for k, tag := range map[Kind]byte{KindNull: 0x00, KindFloat: 0x01, KindString: 0x02, KindBool: 0x03, KindInt: 0x04, Kind(9): 0xff} {
		if got := AppendKind(nil, k); len(got) != 1 || got[0] != tag {
			t.Errorf("AppendKind(%s) = % x, want %02x", k, got, tag)
		}
	}
}

func TestValueCodecRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8_0000_dead_beef)
	row := Row{Null, NewInt(math.MinInt64), NewInt(math.MaxInt64), NewFloat(math.Copysign(0, -1)),
		NewFloat(nan), NewFloat(math.Inf(-1)), NewString(""), NewString("a\x00\xff"), NewBool(true)}
	b := AppendValues(nil, row)
	b = AppendStrings(b, []string{"x", ""})
	b = AppendKind(b, KindString)
	c := NewCursor(b)
	got := make(Row, len(row))
	c.Values(got)
	strs, kind := c.Strs(), c.Kind()
	if err := c.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !sameValue(row[i], got[i]) {
			t.Errorf("value %d: %s came back as %s", i, row[i], got[i])
		}
	}
	if len(strs) != 2 || strs[0] != "x" || strs[1] != "" || kind != KindString {
		t.Errorf("strings %q, kind %s", strs, kind)
	}
}

// sameValue is identity down to the bits: the kind, and a REAL's exact
// pattern (Identical calls -0 and 0, or two NaN payloads, the same).
func sameValue(a, b Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	if a.Kind() == KindFloat {
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	}
	return Identical(a, b)
}

// TestCursorRejectsHostileBytes: every malformed input errors; none panics,
// and a count the remaining bytes cannot hold fails before anything sized by
// it is allocated.
func TestCursorRejectsHostileBytes(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	for name, c := range map[string]struct {
		in   []byte
		read func(*Cursor)
		want string
	}{
		"empty":             {nil, func(c *Cursor) { c.Value() }, "ends mid-item"},
		"unknown tag":       {[]byte{0x07}, func(c *Cursor) { c.Value() }, "unknown wire tag 0x07"},
		"invalid kind tag":  {[]byte{0xff}, func(c *Cursor) { c.Kind() }, "unknown wire tag 0xff"},
		"short REAL":        {[]byte{0x01, 1, 2, 3}, func(c *Cursor) { c.Value() }, "ends mid-item"},
		"short INTEGER":     {[]byte{0x04, 0x80}, func(c *Cursor) { c.Value() }, "ends mid-item"},
		"overlong INTEGER":  {append([]byte{0x04}, bytes.Repeat([]byte{0xff}, 11)...), func(c *Cursor) { c.Value() }, "overflows"},
		"bool byte 2":       {[]byte{0x03, 2}, func(c *Cursor) { c.Value() }, "neither 0 nor 1"},
		"string too long":   {[]byte{0x02, 5, 'a'}, func(c *Cursor) { c.Value() }, "count 5 exceeds"},
		"string 1<<62":      {append([]byte{0x02}, huge...), func(c *Cursor) { c.Value() }, "exceeds"},
		"strings 1<<62":     {huge, func(c *Cursor) { c.Strs() }, "exceeds"},
		"count by min size": {[]byte{3, 0, 0, 0, 0, 0}, func(c *Cursor) { c.Count(2) }, "count 3 exceeds"},
		"trailing bytes":    {[]byte{0x00, 0x00}, func(c *Cursor) { c.Value() }, "1 trailing bytes"},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cur := NewCursor(c.in)
		c.read(cur)
		err := cur.Done()
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", name, err, c.want)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<16 { // the cursor and the error, nothing sized by a count
			t.Errorf("%s: %d bytes allocated while failing", name, n)
		}
	}
}

// TestCursorErrorsAreSticky: after the first error every read returns a zero
// result and the first error stays the one reported.
func TestCursorErrorsAreSticky(t *testing.T) {
	c := NewCursor([]byte{0x09, 0x04, 0x02})
	c.Value()
	if v := c.Value(); !v.IsNull() {
		t.Fatalf("read after an error = %s, want NULL", v)
	}
	if c.Count(1) != 0 || c.Str() != "" || c.Bool() || c.Strs() != nil {
		t.Fatal("reads after an error returned data")
	}
	if err := c.Done(); err == nil || !strings.Contains(err.Error(), "0x09") {
		t.Fatalf("err = %v, want the first error", err)
	}
}

// TestAppendValuesAllocFree: encoding into a buffer with room allocates
// nothing, whatever the kinds.
func TestAppendValuesAllocFree(t *testing.T) {
	row := Row{Null, NewInt(-77), NewFloat(2.5), NewString("lineitem"), NewBool(true)}
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { buf = AppendValues(buf[:0], row) }); n != 0 {
		t.Fatalf("AppendValues allocated %v times", n)
	}
}
