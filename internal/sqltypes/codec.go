package sqltypes

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// The value codec is the binary form of values, rows and strings in every
// persisted format (WAL records, snapshots, the assertion list). Unlike
// EncodeKey it round-trips: an INTEGER stays an INTEGER, and a REAL keeps its
// exact bit pattern, so -0 and NaN payloads survive.
//
// Encoders append to a caller-owned []byte. Decoding reads through a Cursor
// that checks every count and length against the bytes left before acting on
// it, so hostile input fails with an error instead of panicking or forcing a
// large allocation.
//
// Layout of one value: a wire tag, then
//
//	NULL     nothing
//	INTEGER  zigzag varint
//	REAL     the 8 bytes of its IEEE bit pattern, little endian
//	VARCHAR  uvarint byte length, then the raw bytes
//	BOOLEAN  one byte, 0 or 1

// Wire tags, one per kind. They are part of the on-disk format, so they are
// spelled out rather than derived from Kind: reordering Kind must not change
// what a persisted tag means.
const (
	wireNull   byte = 0x00
	wireReal   byte = 0x01
	wireString byte = 0x02
	wireBool   byte = 0x03
	wireInt    byte = 0x04
	wireBad    byte = 0xff // an invalid Kind; no decoder accepts it
)

func wireTag(k Kind) byte {
	switch k {
	case KindNull:
		return wireNull
	case KindInt:
		return wireInt
	case KindFloat:
		return wireReal
	case KindString:
		return wireString
	case KindBool:
		return wireBool
	}
	return wireBad
}

// AppendValue appends the encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, wireNull)
	case KindInt:
		return binary.AppendVarint(append(dst, wireInt), v.i)
	case KindFloat:
		return binary.LittleEndian.AppendUint64(append(dst, wireReal), math.Float64bits(v.f))
	case KindString:
		return AppendString(append(dst, wireString), v.s)
	case KindBool:
		return AppendBool(append(dst, wireBool), v.b)
	}
	return append(dst, wireBad)
}

// AppendValues appends the encodings of vals back to back, without a count:
// the reader knows the arity (Cursor.Values).
func AppendValues(dst []byte, vals []Value) []byte {
	for _, v := range vals {
		dst = AppendValue(dst, v)
	}
	return dst
}

// AppendKind appends the wire tag of k, the form a column type is persisted in.
func AppendKind(dst []byte, k Kind) []byte { return append(dst, wireTag(k)) }

// AppendCount appends n as a uvarint.
func AppendCount(dst []byte, n int) []byte { return binary.AppendUvarint(dst, uint64(n)) }

// AppendBool appends b as one byte, 0 or 1.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendString appends s as its uvarint byte length and its bytes.
func AppendString(dst []byte, s string) []byte {
	dst = slices.Grow(dst, binary.MaxVarintLen64+len(s)) // one growth at most
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendStrings appends the count of ss and then each string.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = AppendCount(dst, len(ss))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// errShort is the cursor's error for input that ends mid-item.
var errShort = errors.New("sqltypes: encoded data ends mid-item")

// Cursor decodes what the Append functions encoded. Its errors are sticky:
// after the first one every read returns a zero result and Err reports it, so
// a decoder reads a whole structure and checks once. Before a caller acts on
// a decoded count (allocates, loops), Count has proved that many items can
// still fit in the bytes left.
type Cursor struct {
	b   []byte
	err error
}

// NewCursor returns a cursor over b.
func NewCursor(b []byte) *Cursor { return &Cursor{b: b} }

// Err returns the first decoding error, if any.
func (c *Cursor) Err() error { return c.err }

// Done returns the first decoding error, or an error if bytes remain: a
// complete decode consumes its input exactly.
func (c *Cursor) Done() error {
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("sqltypes: %d trailing bytes after the encoded data", len(c.b))
	}
	return c.err
}

func (c *Cursor) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.b = nil
}

func (c *Cursor) next() byte {
	if len(c.b) == 0 {
		c.fail(errShort)
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

// Uvarint reads an unsigned varint.
func (c *Cursor) Uvarint() uint64 {
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.varintFail(n)
		return 0
	}
	c.b = c.b[n:]
	return v
}

// varintFail records why binary.Uvarint or binary.Varint returned n <= 0.
func (c *Cursor) varintFail(n int) {
	if n < 0 {
		c.fail(errors.New("sqltypes: varint overflows 64 bits"))
	} else {
		c.fail(errShort)
	}
}

// Count reads a count of items that each take at least minSize bytes
// (minSize >= 1), and fails unless that many can fit in the bytes left.
func (c *Cursor) Count(minSize int) int {
	n := c.Uvarint()
	if limit := uint64(len(c.b) / max(minSize, 1)); n > limit {
		c.fail(fmt.Errorf("sqltypes: count %d exceeds what the %d bytes left can hold", n, len(c.b)))
		return 0
	}
	return int(n)
}

// Bool reads one byte that must be 0 or 1.
func (c *Cursor) Bool() bool {
	switch c.next() {
	case 0:
		return false
	case 1:
		return true
	}
	c.fail(errors.New("sqltypes: boolean byte is neither 0 nor 1"))
	return false
}

// Str reads a length-prefixed string.
func (c *Cursor) Str() string {
	n := c.Count(1)
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

// Strs reads a count-prefixed list of strings.
func (c *Cursor) Strs() []string {
	n := c.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = c.Str()
	}
	return out
}

// Kind reads a wire tag written by AppendKind.
func (c *Cursor) Kind() Kind {
	switch tag := c.next(); tag {
	case wireNull:
		return KindNull
	case wireInt:
		return KindInt
	case wireReal:
		return KindFloat
	case wireString:
		return KindString
	case wireBool:
		return KindBool
	default:
		c.fail(fmt.Errorf("sqltypes: unknown wire tag 0x%02x", tag))
	}
	return KindNull
}

// Value reads one value.
func (c *Cursor) Value() Value {
	switch c.Kind() {
	case KindInt:
		i, n := binary.Varint(c.b)
		if n <= 0 {
			c.varintFail(n)
			return Null
		}
		c.b = c.b[n:]
		return NewInt(i)
	case KindFloat:
		if len(c.b) < 8 {
			c.fail(errShort)
			return Null
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(c.b))
		c.b = c.b[8:]
		return NewFloat(f)
	case KindString:
		return NewString(c.Str())
	case KindBool:
		return NewBool(c.Bool())
	}
	return Null
}

// Values fills dst with len(dst) values.
func (c *Cursor) Values(dst []Value) {
	for i := range dst {
		dst[i] = c.Value()
	}
}
