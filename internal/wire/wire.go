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
	buf []byte
	err error
}

// NewEncoder starts a document at the end of buf, growing it as needed;
// pass buf with the capacity the document is expected to need.
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

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
	if e.buf, err = appendFloat(e.buf, f); err != nil && e.err == nil {
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
