package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`1 2.5 "a b" c  "d"`, []string{"1", "2.5", "a b", "c", "d"}},
		{`a`, []string{"a"}},
		{`  `, nil}, // (callers trim first, but tokenize must cope)
		{`""`, []string{""}},
		{`a""b`, []string{"a", "", "b"}},
		{`ab"cd"ef`, []string{"ab", "cd", "ef"}},
		{`"unterminated`, []string{"unterminated"}},
		{`x "`, []string{"x"}},
		{"a\tb", []string{"a", "b"}},
		{`"q w" "e"`, []string{"q w", "e"}},
	}
	for _, c := range cases {
		var got []string
		for _, tok := range Tokenize([]byte(c.in), nil) {
			got = append(got, string(tok))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFieldsMatchesStringsFields(t *testing.T) {
	cases := []string{
		"a b  c", "", "  ", "one", "\ta\tb\t", "x y", "héllo wörld",
		"a\vb\fc", "tail ", " lead", "\xff\xfe raw bytes",
	}
	for _, c := range cases {
		var got []string
		for _, tok := range Fields([]byte(c), nil) {
			got = append(got, string(tok))
		}
		want := strings.Fields(c)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Fields(%q) = %q, want %q", c, got, want)
		}
	}
}

// scanToStrings runs Scan and materializes every line event for
// comparison across modes.
func scanToStrings(t *testing.T, input string, d Dialect, opt Options) []string {
	t.Helper()
	var out []string
	err := Scan(strings.NewReader(input), d, opt, func(lineno int, kind LineKind, toks [][]byte) error {
		s := fmt.Sprintf("%d/%d:", lineno, kind)
		for _, tok := range toks {
			s += " <" + string(tok) + ">"
		}
		out = append(out, s)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan(%q): %v", input, err)
	}
	return out
}

func TestScanSerialBasics(t *testing.T) {
	input := "# comment\n\n%EventDef PajeSetVariable 6\n6 0 \"a b\" c\ntail"
	got := scanToStrings(t, input, DialectPaje, Options{Parallelism: 1})
	want := []string{
		"1/0:",
		"2/0:",
		"3/1: <EventDef> <PajeSetVariable> <6>",
		"4/2: <6> <0> <a b> <c>",
		"5/2: <tail>",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

func TestScanNativeDialect(t *testing.T) {
	input := "% not special here\nresource h host -\n"
	got := scanToStrings(t, input, DialectNative, Options{Parallelism: 1})
	want := []string{
		"1/2: <%> <not> <special> <here>",
		"2/2: <resource> <h> <host> <->",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %q want %q", got, want)
	}
}

// TestScanParallelMatchesSerial drives both modes over inputs crossing
// chunk boundaries, with CRLF endings and long lines, asserting the apply
// stage sees the identical sequence.
func TestScanParallelMatchesSerial(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 5000; i++ {
		switch i % 5 {
		case 0:
			fmt.Fprintf(&b, "6 %d \"name %d\" val\r\n", i, i)
		case 1:
			fmt.Fprintf(&b, "# comment %d\n", i)
		case 2:
			fmt.Fprintf(&b, "%%\tField%d string\n", i)
		case 3:
			b.WriteString(strings.Repeat("x", 300) + "\n")
		default:
			b.WriteString("\n")
		}
	}
	b.WriteString("last line no newline")
	input := b.String()
	serial := scanToStrings(t, input, DialectPaje, Options{Parallelism: 1})
	for _, p := range []int{2, 3, 8} {
		par := scanToStrings(t, input, DialectPaje, Options{Parallelism: p})
		if !reflect.DeepEqual(par, serial) {
			t.Fatalf("parallelism %d diverged from serial (len %d vs %d)", p, len(par), len(serial))
		}
	}
}

// TestScanSkipsTokenlessLines feeds a '%' header and a lone quote, lines
// that tokenize to nothing, after lines that did not: in both modes they
// reach the apply stage as skips, never as a header or an event with no
// tokens (the pipelined scan shares one token buffer across a chunk).
func TestScanSkipsTokenlessLines(t *testing.T) {
	input := "%EventDef X 1\n%\n1 a\n\"\n1 b\n"
	want := []string{"1/1: <EventDef> <X> <1>", "2/0:", "3/2: <1> <a>", "4/0:", "5/2: <1> <b>"}
	for _, p := range []int{1, 2} {
		if got := scanToStrings(t, input, DialectPaje, Options{Parallelism: p}); !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: got %q, want %q", p, got, want)
		}
	}
}

// TestScanHugeLine covers a single line far larger than a chunk in both
// modes (it must grow, not split), and the over-limit failure.
func TestScanHugeLine(t *testing.T) {
	long := strings.Repeat("a", chunkSize*3)
	input := "first\n" + long + " tail\nlast\n"
	for _, p := range []int{1, 4} {
		got := scanToStrings(t, input, DialectPaje, Options{Parallelism: p})
		if len(got) != 3 {
			t.Fatalf("p=%d: %d lines, want 3", p, len(got))
		}
		if want := fmt.Sprintf("2/2: <%s> <tail>", long); got[1] != want {
			t.Fatalf("p=%d: long line mangled (len %d)", p, len(got[1]))
		}
	}
}

func TestScanLineTooLong(t *testing.T) {
	r := io.MultiReader(
		strings.NewReader("ok\n"),
		strings.NewReader(strings.Repeat("y", maxLineLen+chunkSize)),
	)
	var seen []string
	err := Scan(r, DialectPaje, Options{Parallelism: 1}, func(lineno int, kind LineKind, toks [][]byte) error {
		seen = append(seen, string(toks[0]))
		return nil
	})
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if len(seen) != 1 || seen[0] != "ok" {
		t.Fatalf("lines before the too-long line should be applied, got %q", seen)
	}
}

// errReader yields some data then a non-EOF error.
type errReader struct {
	data string
	err  error
	done bool
}

func (e *errReader) Read(p []byte) (int, error) {
	if e.done {
		return 0, e.err
	}
	e.done = true
	return copy(p, e.data), nil
}

func TestScanReadErrorAfterBufferedLines(t *testing.T) {
	boom := errors.New("boom")
	for _, p := range []int{1, 3} {
		var seen []string
		err := Scan(&errReader{data: "a\nb\npartial", err: boom}, DialectPaje,
			Options{Parallelism: p}, func(lineno int, kind LineKind, toks [][]byte) error {
				seen = append(seen, string(toks[0]))
				return nil
			})
		if !errors.Is(err, boom) {
			t.Fatalf("p=%d: err = %v, want boom", p, err)
		}
		if !reflect.DeepEqual(seen, []string{"a", "b", "partial"}) {
			t.Fatalf("p=%d: buffered lines before the error should be applied, got %q", p, seen)
		}
	}
}

func TestScanApplyErrorAborts(t *testing.T) {
	bad := errors.New("bad line")
	var input strings.Builder
	for i := 0; i < 20000; i++ {
		fmt.Fprintf(&input, "line %d\n", i)
	}
	for _, p := range []int{1, 4} {
		calls := 0
		err := Scan(strings.NewReader(input.String()), DialectPaje,
			Options{Parallelism: p}, func(lineno int, kind LineKind, toks [][]byte) error {
				calls++
				if lineno == 100 {
					return bad
				}
				return nil
			})
		if !errors.Is(err, bad) {
			t.Fatalf("p=%d: err = %v, want bad", p, err)
		}
		if calls != 100 {
			t.Fatalf("p=%d: apply stage ran %d times after the error (want exactly 100)", p, calls)
		}
	}
}

func TestInterner(t *testing.T) {
	in := NewInterner()
	a := in.Intern([]byte("host-1"))
	b := in.Intern([]byte("host-1"))
	if a != b {
		t.Fatal("same bytes interned to different strings")
	}
	if in.Intern(nil) != "" || in.Intern([]byte{}) != "" {
		t.Fatal("empty intern should be \"\"")
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d, want 1", in.Len())
	}
}

func TestScanEmptyInput(t *testing.T) {
	for _, p := range []int{1, 2} {
		got := scanToStrings(t, "", DialectPaje, Options{Parallelism: p})
		if len(got) != 0 {
			t.Fatalf("p=%d: empty input produced %d lines", p, len(got))
		}
	}
}

// BenchmarkTokenize measures the zero-copy tokenizer on a representative
// quoted Paje event line.
func BenchmarkTokenize(b *testing.B) {
	line := []byte(`12 1.52e+01 STATE "host-1234 on site" "some state value"`)
	b.ReportAllocs()
	toks := make([][]byte, 0, 8)
	for i := 0; i < b.N; i++ {
		toks = Tokenize(line, toks[:0])
	}
	_ = toks
}
