// Package wire appends JSON values to a byte slice with encoding/json's
// exact output, without its reflection. The server's /api/graph payloads
// and the stream's snapshots are written field by field through an
// Encoder, so a frame costs one buffer instead of a tree of structs, a
// reflective walk and a copy.
//
// Two value rules carry the byte-for-byte equivalence with json.Marshal:
// floats follow encoding/json's float rule, and strings that need no
// escaping are copied straight through while every other string is
// handed to json.Marshal itself, so its HTML escaping, U+2028/2029 and
// invalid-UTF-8 handling stay exact.
package wire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// safe marks the bytes a JSON string can carry unescaped under
// encoding/json's HTML-safe encoding: printable ASCII other than '"',
// '\\', '<', '>' and '&'.
var safe = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as a quoted JSON string, exactly as json.Marshal
// would encode it.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !safe[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f as json.Marshal encodes a float64: the shortest
// decimal that round-trips, in exponent form below 1e-6 and from 1e21 up
// (with a one-digit negative exponent written e-7, not e-07). NaN and
// ±Inf have no JSON form; they leave b unchanged and return the error
// json.Marshal gives for them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// Encoder appends one JSON document to a buffer. Its methods never fail
// mid-way: the first unsupported float is kept and reported by Bytes, so
// a payload's encoder reads as a flat list of fields.
type Encoder struct {
	buf  []byte
	err  error
	memo *FloatMemo
}

// NewEncoder starts a document at the end of buf, growing it as needed;
// pass buf with the capacity the document is expected to need.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// NewMemoEncoder is NewEncoder formatting its floats through memo, which
// the caller keeps from one document to the next. The bytes are the same
// as without it.
func NewMemoEncoder(buf []byte, memo *FloatMemo) *Encoder {
	return &Encoder{buf: buf, memo: memo}
}

// Len returns the length of the document so far: the offset the next
// value starts at.
func (e *Encoder) Len() int { return len(e.buf) }

// Bytes returns the document, or the first error a value raised.
func (e *Encoder) Bytes() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.buf, nil
}

// Raw appends literal JSON text: punctuation and quoted keys. It returns
// the encoder, so a field reads as one line: e.Raw(`,"x":`).Float(x).
func (e *Encoder) Raw(s string) *Encoder {
	e.buf = append(e.buf, s...)
	return e
}

// Copy appends text already in JSON form, such as a span of an earlier
// document.
func (e *Encoder) Copy(b []byte) { e.buf = append(e.buf, b...) }

// String appends a quoted string.
func (e *Encoder) String(s string) { e.buf = appendString(e.buf, s) }

// Int appends an integer.
func (e *Encoder) Int(n int) { e.buf = strconv.AppendInt(e.buf, int64(n), 10) }

// Uint appends an unsigned integer.
func (e *Encoder) Uint(n uint64) { e.buf = strconv.AppendUint(e.buf, n, 10) }

// Bool appends true or false.
func (e *Encoder) Bool(v bool) { e.buf = strconv.AppendBool(e.buf, v) }

// Float appends a number; NaN and ±Inf poison the document.
func (e *Encoder) Float(f float64) {
	var err error
	if e.memo != nil {
		e.buf, err = e.memo.appendFloat(e.buf, f)
	} else {
		e.buf, err = appendFloat(e.buf, f)
	}
	if err != nil && e.err == nil {
		e.err = err
	}
}

// Pair appends a two-element number array, the wire form of a slice or
// window.
func (e *Encoder) Pair(a, b float64) {
	e.Raw("[").Float(a)
	e.Raw(",").Float(b)
	e.Raw("]")
}

// FloatMemo remembers the text of recently formatted floats, so a number
// that recurs within a document, or from one document to the next, is
// formatted once. It is a fixed table of memoSets sets of two entries,
// keyed by the float's bits: a lookup is one hash and at most two
// compares, and the table never grows. Only finite numbers whose text
// fits an entry are kept; NaN and ±Inf always take appendFloat's error
// path. The zero value is an empty memo. A memo is not safe for
// concurrent use.
type FloatMemo struct {
	sets [memoSets][2]memoEntry
}

// The memo's shape: 2,048 sets of two 32-byte entries, 128 KiB in all.
const (
	memoSetBits = 11
	memoSets    = 1 << memoSetBits
	memoText    = 23 // longest text an entry holds
)

// memoEntry is one formatted float; n == 0 marks an empty entry, since
// every float's text has at least one byte.
type memoEntry struct {
	bits uint64
	n    uint8
	text [memoText]byte
}

// set returns the set a float's bits map to (Fibonacci hashing: the top
// bits of the product spread nearby bit patterns across the table).
func (m *FloatMemo) set(bits uint64) *[2]memoEntry {
	return &m.sets[(bits*0x9e3779b97f4a7c15)>>(64-memoSetBits)]
}

// appendFloat is appendFloat through the memo. A hit in the second
// entry of a set is copied out, then moved to the front; a miss formats
// the float and puts it in front, pushing the older front entry back.
func (m *FloatMemo) appendFloat(b []byte, f float64) ([]byte, error) {
	bits := math.Float64bits(f)
	set := m.set(bits)
	if e := &set[0]; e.n != 0 && e.bits == bits {
		return append(b, e.text[:e.n]...), nil
	}
	if e := &set[1]; e.n != 0 && e.bits == bits {
		b = append(b, e.text[:e.n]...)
		set[0], set[1] = set[1], set[0]
		return b, nil
	}
	start := len(b)
	b, err := appendFloat(b, f)
	if err != nil || len(b)-start > memoText {
		return b, err
	}
	set[1] = set[0]
	set[0].bits = bits
	set[0].n = uint8(copy(set[0].text[:], b[start:]))
	return b, nil
}
