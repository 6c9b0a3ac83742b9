package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
)

// checkFloat requires appendFloat to match json.Marshal byte for byte,
// or to fail with the same error text.
func checkFloat(t *testing.T, f float64) {
	t.Helper()
	want, wantErr := json.Marshal(f)
	got, err := appendFloat([]byte("x"), f)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("%v (%#x): error %v, json.Marshal %v", f, math.Float64bits(f), err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() || string(got) != "x" {
			t.Fatalf("%v: error %q leaving %q, json.Marshal %q", f, err, got, wantErr)
		}
		return
	}
	if !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("%v (%#x): got %s, json.Marshal %s", f, math.Float64bits(f), got[1:], want)
	}
}

// checkString requires appendString to match json.Marshal byte for byte.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := appendString([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
		t.Fatalf("%q: got %s, json.Marshal %s", s, got[1:], want)
	}
}

// FuzzWireValues holds the two value rules to json.Marshal on arbitrary
// float64 bit patterns and strings. The seeds sit on every branch: -0,
// subnormals, both sides of the 1e-6 and 1e21 exponent thresholds, the
// one- and two-digit negative exponents, NaN and ±Inf; HTML characters,
// control bytes, U+2028/2029 and invalid UTF-8.
func FuzzWireValues(f *testing.F) {
	floats := []float64{0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308,
		1e-6, math.Nextafter(1e-6, 0), -1e-6, 1e-7, 1.5e-10, 1e-100,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e20, 1.7976931348623157e308,
		0.1, 1.0 / 3, 123456789, -2.5, math.NaN(), math.Inf(1), math.Inf(-1)}
	strs := []string{"", "host-1", `<script>&"'\`, "a<b", "a>b", "a&b", `a"b`, `a\b`,
		"tab\there\nnl", "\x00\x1f\x7f",
		"a\u2028b\u2029c", "bad \xff\xfe utf8", "\u00e9 \u2603 \U0001F600", "\xed\xa0\x80"}
	for i, x := range floats {
		f.Add(math.Float64bits(x), strs[i%len(strs)])
	}
	f.Fuzz(func(t *testing.T, bits uint64, s string) {
		checkFloat(t, math.Float64frombits(bits))
		checkString(t, s)
	})
}

// TestEncoderKeepsFirstError checks that a document with a non-finite
// number fails as a whole, with the first offending value's error.
func TestEncoderKeepsFirstError(t *testing.T) {
	e := NewEncoder(nil)
	e.Raw(`{"a":`)
	e.Float(math.Inf(-1))
	e.Raw(`,"b":`)
	e.Float(math.NaN())
	e.Raw("}")
	_, wantErr := json.Marshal(math.Inf(-1))
	if b, err := e.Bytes(); b != nil || err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Bytes = %q, %v; want nil, %v", b, err, wantErr)
	}

	e = NewEncoder(nil)
	e.Raw("[")
	e.Int(-3)
	e.Raw(",")
	e.Uint(math.MaxUint64)
	e.Raw(",")
	e.Bool(true)
	e.Raw(",")
	e.Pair(1e-7, 2)
	e.Raw(",")
	e.String("<é>")
	e.Raw("]")
	want, _ := json.Marshal([]any{-3, uint64(math.MaxUint64), true, [2]float64{1e-7, 2}, "<é>"})
	if b, err := e.Bytes(); err != nil || !bytes.Equal(b, want) {
		t.Fatalf("Bytes = %s, %v; want %s", b, err, want)
	}
}

// colliding holds bit patterns of ordinary finite floats that all map to
// one memo set, with texts of different lengths, so a memo test can
// evict, re-admit and swap the entries of a single set at will.
var colliding = func() []uint64 {
	var m FloatMemo
	var out []uint64
	for i := 1; len(out) < 6; i++ {
		bits := math.Float64bits(float64(i) * 0.3027)
		if len(out) == 0 || m.set(bits) == m.set(out[0]) {
			out = append(out, bits)
		}
	}
	return out
}()

// checkMemo appends f through the memo and requires exactly what
// appendFloat gives, error included.
func checkMemo(t *testing.T, m *FloatMemo, f float64) {
	t.Helper()
	want, wantErr := appendFloat([]byte("x"), f)
	got, err := m.appendFloat([]byte("x"), f)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("%v (%#x): memo error %v, appendFloat %v", f, math.Float64bits(f), err, wantErr)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%v (%#x): memo %s, appendFloat %s", f, math.Float64bits(f), got, want)
	}
}

// TestFloatMemoCollisions walks one set through misses, front hits,
// back hits and evictions: every text must be its own float's.
func TestFloatMemoCollisions(t *testing.T) {
	var m FloatMemo
	for _, i := range []int{0, 1, 0, 1, 1, 2, 0, 1, 2, 3, 4, 3, 5, 4, 3, 0, 0, 5} {
		checkMemo(t, &m, math.Float64frombits(colliding[i]))
	}
}

// FuzzFloatMemo pushes sequences of floats through one memo: each input
// byte picks a pattern from the colliding set, a special value (zeros,
// exponent-form thresholds, a text too long for an entry, NaN, ±Inf), or
// takes the next eight bytes as raw bits. Every append must equal
// appendFloat's, so no hit, swap or eviction may hand back another
// float's text, and no non-finite value may enter the memo.
func FuzzFloatMemo(f *testing.F) {
	special := []float64{0, math.Copysign(0, -1), 1e-7, -1e21, math.Nextafter(1e-6, 0),
		-2.2250738585072014e-308, math.NaN(), math.Inf(1), math.Inf(-1)}
	f.Add([]byte{0, 1, 0, 1, 1, 2, 0, 1, 2, 3, 4, 3, 5, 4, 3, 0})
	f.Add([]byte{0, 70, 1, 71, 0, 72, 73, 76, 0, 77, 1, 78, 2, 74, 0})
	f.Add([]byte{128, 1, 2, 3, 4, 5, 6, 7, 8, 0, 128, 1, 2, 3, 4, 5, 6, 7, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var m FloatMemo
		for len(data) > 0 {
			op := data[0]
			data = data[1:]
			var x float64
			switch {
			case op < 64:
				x = math.Float64frombits(colliding[int(op)%len(colliding)])
			case op < 128:
				x = special[int(op)%len(special)]
			case len(data) >= 8:
				x = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			default:
				return
			}
			checkMemo(t, &m, x)
		}
	})
}
