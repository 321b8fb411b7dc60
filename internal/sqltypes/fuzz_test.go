package sqltypes

import (
	"encoding/binary"
	"math"
	"testing"
)

// The fuzz input is a byte stream decoded into two rows of equal arity: one
// arity byte, then one value per column of row a, then of row b. A value is a
// tag byte and a payload. Besides the five kinds there are three tags that
// aim the second row at the first, because two independent random rows are
// almost never identical and the interesting half of the property would go
// untested.
const (
	tagNull   = iota
	tagInt    // 8 bytes, big endian
	tagFloat  // 8 bytes, the IEEE bit pattern
	tagString // 1 length byte, then that many bytes
	tagBool   // 1 byte
	tagSame   // row b: the value row a holds in this column
	tagFlip   // row b: that value in the other numeric kind, where it fits
	tagEdge   // ±(2^53 + 1 payload byte): where float64 stops holding integers
	numTags
)

type rowDecoder struct{ data []byte }

func (d *rowDecoder) take(n int) []byte {
	b := make([]byte, n) // a short input reads as zeros
	copy(b, d.data)
	d.data = d.data[min(n, len(d.data)):]
	return b
}

// value decodes one value; peer is row a's value in the same column (NULL
// while row a itself is being decoded).
func (d *rowDecoder) value(peer Value) Value {
	switch d.take(1)[0] % numTags {
	case tagInt:
		return NewInt(int64(binary.BigEndian.Uint64(d.take(8))))
	case tagFloat:
		return NewFloat(math.Float64frombits(binary.BigEndian.Uint64(d.take(8))))
	case tagString:
		return NewString(string(d.take(int(d.take(1)[0]))))
	case tagBool:
		return NewBool(d.take(1)[0]&1 == 1)
	case tagSame:
		return peer
	case tagFlip:
		switch peer.Kind() {
		case KindInt:
			return NewFloat(float64(peer.Int()))
		case KindFloat:
			if f := peer.Float(); f >= -(1<<63) && f < 1<<63 {
				return NewInt(int64(f))
			}
		}
		return peer
	case tagEdge:
		b := d.take(1)[0]
		i := int64(1<<53) + int64(b&0x7f)
		if b&0x80 != 0 {
			i = -i
		}
		return NewInt(i)
	}
	return Null
}

func decodeRowPair(data []byte) (a, b Row) {
	d := &rowDecoder{data: data}
	n := int(d.take(1)[0])%4 + 1
	a, b = make(Row, n), make(Row, n)
	for i := range a {
		a[i] = d.value(Null)
	}
	for i := range b {
		b[i] = d.value(a[i])
	}
	return a, b
}

// encodeRowPair is decodeRowPair's inverse for literal rows (seeds).
func encodeRowPair(a, b Row) []byte {
	out := []byte{byte(len(a) - 1)}
	for _, r := range []Row{a, b} {
		for _, v := range r {
			switch v.Kind() {
			case KindNull:
				out = append(out, tagNull)
			case KindInt:
				out = binary.BigEndian.AppendUint64(append(out, tagInt), uint64(v.Int()))
			case KindFloat:
				out = binary.BigEndian.AppendUint64(append(out, tagFloat), math.Float64bits(v.Float()))
			case KindString:
				out = append(append(out, tagString, byte(len(v.Str()))), v.Str()...)
			case KindBool:
				bit := byte(0)
				if v.Bool() {
					bit = 1
				}
				out = append(out, tagBool, bit)
			}
		}
	}
	return out
}

// FuzzEncodeKeyInjective checks that Row.Key is equal exactly when
// IdenticalRows holds. Every consumer of the key — hash-index buckets, the
// primary-key map, IN-subquery sets, DISTINCT — trusts a key match without
// comparing the values again.
//
// Run with:
//
//	go test ./internal/sqltypes -fuzz=FuzzEncodeKeyInjective -fuzztime=60s
func FuzzEncodeKeyInjective(f *testing.F) {
	nan2 := math.Float64frombits(math.Float64bits(math.NaN()) | 1)
	for _, c := range [][2]Row{
		// Distinct rows that shared a key before the encoding was made
		// injective: integers beyond ±2^53 collapsing onto one float64, and
		// NUL-terminated strings imitating a column boundary.
		{{NewInt(1 << 53)}, {NewInt(1<<53 + 1)}},
		{{NewInt(-(1 << 53))}, {NewInt(-(1<<53 + 1))}},
		{{NewInt(math.MaxInt64)}, {NewInt(math.MaxInt64 - 1)}},
		{{NewString("a"), Null, NewString("b\x00")}, {NewString("a\x00"), NewString("b"), Null}},
		// Other edges: equal values of two kinds, the zeros, the NaNs, the
		// ends of the int64 range against float64, empty strings, kind order.
		{{NewInt(5), Null}, {NewFloat(5), Null}},
		{{NewFloat(0)}, {NewFloat(math.Copysign(0, -1))}},
		{{NewFloat(math.NaN())}, {NewFloat(nan2)}},
		{{NewInt(1<<53 + 1)}, {NewFloat(1 << 53)}},
		{{NewInt(math.MaxInt64)}, {NewFloat(1 << 63)}},
		{{NewInt(math.MinInt64)}, {NewFloat(-(1 << 63))}},
		{{NewString(""), NewString("\x00")}, {NewString("\x00"), NewString("")}},
		{{NewBool(true), NewInt(1)}, {NewInt(1), NewBool(true)}},
	} {
		f.Add(encodeRowPair(c[0], c[1]))
	}
	f.Add([]byte{0, tagEdge, 0x01, tagFlip})
	f.Add([]byte{1, tagString, 2, 'a', 0, tagNull, tagSame, tagSame})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			return
		}
		a, b := decodeRowPair(data)
		if same, ident := a.Key() == b.Key(), IdenticalRows(a, b); same != ident {
			t.Fatalf("%s (key %x) and %s (key %x): keys equal = %v, rows identical = %v",
				a, a.Key(), b, b.Key(), same, ident)
		}
		for i := range a {
			if same, ident := a.KeyOn([]int{i}) == b.KeyOn([]int{i}), Identical(a[i], b[i]); same != ident {
				t.Fatalf("column %d: %s and %s: keys equal = %v, identical = %v", i, a[i], b[i], same, ident)
			}
		}
	})
}
