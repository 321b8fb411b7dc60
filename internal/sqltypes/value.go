// Package sqltypes provides the typed value model shared by the storage
// engine, the query evaluator and the TINTIN rewriting pipeline.
//
// Values are small immutable scalars with SQL-like comparison semantics:
// integers and floats compare numerically across kinds, NULL compares as
// unknown (reported via an ok flag), and every non-null value has a stable
// byte encoding usable as a hash-index key.
package sqltypes

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Kind enumerates the runtime type of a Value.
type Kind uint8

// The supported SQL scalar kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL scalar. The zero Value is NULL.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an INTEGER value.
func NewInt(v int64) Value { return Value{kind: KindInt, i: v} }

// NewFloat returns a REAL value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, f: v} }

// NewString returns a VARCHAR value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a BOOLEAN value.
func NewBool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind reports the runtime kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It panics unless Kind is KindInt.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("sqltypes: Int() on " + v.kind.String())
	}
	return v.i
}

// Float returns the numeric payload as float64 for KindInt or KindFloat.
func (v Value) Float() float64 {
	switch v.kind {
	case KindInt:
		return float64(v.i)
	case KindFloat:
		return v.f
	}
	panic("sqltypes: Float() on " + v.kind.String())
}

// Str returns the string payload. It panics unless Kind is KindString.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("sqltypes: Str() on " + v.kind.String())
	}
	return v.s
}

// Bool returns the boolean payload. It panics unless Kind is KindBool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("sqltypes: Bool() on " + v.kind.String())
	}
	return v.b
}

// IsNumeric reports whether v is an INTEGER or REAL.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders v in SQL literal syntax.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'g', -1, 64)
		// An integral REAL would otherwise render indistinguishably from an
		// INTEGER literal and flip kind on a parse round-trip; force a
		// decimal point. Inf/NaN (no SQL literal syntax) are left as-is.
		if !strings.ContainsAny(s, ".eEnN") {
			s += ".0"
		}
		return s
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.b {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// Compare orders two values. The ok result is false when either side is NULL
// (SQL unknown) or the kinds are incomparable; cmp is then meaningless.
// Numeric kinds compare with each other; strings and bools compare within
// their own kind (false < true).
func Compare(a, b Value) (cmp int, ok bool) {
	if a.kind == KindNull || b.kind == KindNull {
		return 0, false
	}
	if a.IsNumeric() && b.IsNumeric() {
		switch {
		case a.kind == KindInt && b.kind == KindInt:
			switch {
			case a.i < b.i:
				return -1, true
			case a.i > b.i:
				return 1, true
			}
			return 0, true
		case a.kind == KindInt:
			return compareIntFloat(a.i, b.f), true
		case b.kind == KindInt:
			return -compareIntFloat(b.i, a.f), true
		}
		return compareFloat(a.f, b.f), true
	}
	if a.kind != b.kind {
		return 0, false
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s), true
	case KindBool:
		switch {
		case !a.b && b.b:
			return -1, true
		case a.b && !b.b:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// Equal reports SQL equality. NULL never equals anything (including NULL).
func Equal(a, b Value) bool {
	cmp, ok := Compare(a, b)
	return ok && cmp == 0
}

// Identical reports structural identity, treating NULL as identical to NULL
// and distinguishing 1 (INTEGER) from 1.0 (REAL) only by numeric value.
// It is the notion of tuple identity used by the storage layer (event
// normalization, duplicate elimination).
func Identical(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return a.kind == b.kind
	}
	return Equal(a, b)
}

// compareFloat orders two REALs. NaN has no SQL literal but arithmetic can
// produce it; it equals itself and sorts above every number, so Compare
// stays a total order on numerics and agrees with EncodeKey.
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b:
		return 0
	}
	switch an, bn := a != a, b != b; {
	case an && bn:
		return 0
	case an:
		return 1
	}
	return -1
}

// compareIntFloat orders an INTEGER against a REAL exactly. Converting the
// integer to float64 first would round it: 2^53+1 would equal 2^53.0 while
// differing from the INTEGER 2^53, and equality would stop being transitive.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f, f >= 1<<63:
		return -1
	case f < -(1 << 63):
		return 1
	}
	t := int64(f) // f is inside the int64 range: truncation toward zero, exact
	switch {
	case i < t:
		return -1
	case i > t:
		return 1
	}
	return compareFloat(0, f-float64(t)) // the fraction decides
}

// EncodeKey appends an encoding of v to dst that is injective up to
// Identical, on single values and on concatenations of them: two rows of
// equal arity have equal keys exactly when IdenticalRows holds. Hash indexes
// (the primary key's included), IN-subquery sets and DISTINCT all trust a key
// match without re-comparing values, so a collision there is a wrong answer.
//
// Numerically equal INTEGER and REAL values encode identically so that hash
// index probes agree with Compare; an INTEGER that float64 cannot represent
// (beyond ±2^53) equals no REAL and gets an exact encoding of its own.
// Strings are length-prefixed, so no string content can imitate a column
// boundary. NULL encodes as a value: callers that need SQL equality keep
// NULLs out of the key themselves.
func (v Value) EncodeKey(dst []byte) []byte {
	switch v.kind {
	case KindNull:
		return append(dst, 0x00)
	case KindInt:
		if f := float64(v.i); f < 1<<63 && int64(f) == v.i {
			return appendFloatKey(dst, f)
		}
		return appendTagged(dst, 0x04, uint64(v.i))
	case KindFloat:
		return appendFloatKey(dst, v.f)
	case KindString:
		dst = slices.Grow(dst, 1+binary.MaxVarintLen64+len(v.s)) // one growth, none on a warm scratch
		dst = binary.AppendUvarint(append(dst, 0x02), uint64(len(v.s)))
		return append(dst, v.s...)
	case KindBool:
		if v.b {
			return append(dst, 0x03, 0x01)
		}
		return append(dst, 0x03, 0x00)
	}
	return append(dst, 0xff)
}

// appendFloatKey encodes the bit pattern of f with the two cases where
// compareFloat calls distinct patterns equal made canonical: -0 and the NaNs.
func appendFloatKey(dst []byte, f float64) []byte {
	switch {
	case f == 0:
		f = 0 // -0 becomes +0
	case f != f:
		f = math.NaN() // any payload becomes the one canonical NaN
	}
	return appendTagged(dst, 0x01, math.Float64bits(f))
}

// appendTagged appends tag and the 8 bytes of bits in one append, so a key
// built from nil grows once.
func appendTagged(dst []byte, tag byte, bits uint64) []byte {
	var b [9]byte
	b[0] = tag
	binary.BigEndian.PutUint64(b[1:], bits)
	return append(dst, b[:]...)
}

// Row is an ordered tuple of values.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Key encodes the whole row as a hashable string key.
func (r Row) Key() string {
	var buf []byte
	for _, v := range r {
		buf = v.EncodeKey(buf)
	}
	return string(buf)
}

// KeyOn encodes the projection of r onto the given column offsets.
func (r Row) KeyOn(cols []int) string {
	var buf []byte
	for _, c := range cols {
		buf = r[c].EncodeKey(buf)
	}
	return string(buf)
}

// String renders the row as a parenthesised SQL tuple.
func (r Row) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range r {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(v.String())
	}
	b.WriteByte(')')
	return b.String()
}

// IdenticalRows reports whether two rows are structurally identical
// (same length, Identical values position-wise).
func IdenticalRows(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

// CoerceTo attempts to convert v to the target kind, used when inserting
// literals into typed columns (e.g. INTEGER literal into a REAL column).
func (v Value) CoerceTo(k Kind) (Value, error) {
	if v.kind == k || v.kind == KindNull {
		return v, nil
	}
	switch {
	case v.kind == KindInt && k == KindFloat:
		return NewFloat(float64(v.i)), nil
	case v.kind == KindFloat && k == KindInt:
		if v.f == math.Trunc(v.f) && !math.IsInf(v.f, 0) {
			return NewInt(int64(v.f)), nil
		}
		return Null, fmt.Errorf("sqltypes: cannot coerce %s to INTEGER without loss", v)
	}
	return Null, fmt.Errorf("sqltypes: cannot coerce %s (%s) to %s", v, v.kind, k)
}
