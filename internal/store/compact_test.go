package store

import (
	"bytes"
	"compress/gzip"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"viva/internal/ingest"
	"viva/internal/trace"
)

// compactAndCompare compacts the serialized trace file and checks the
// result materializes back to the exact same trace.
func compactAndCompare(t *testing.T, tr *trace.Trace, srcBytes []byte) {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join(dir, "in.trace")
	dst := filepath.Join(dir, "out.vvc")
	if err := os.WriteFile(src, srcBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CompactFile(src, dst, ingest.Options{}, WriterOptions{ChunkPoints: 32}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dst)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	back, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := trace.Write(&want, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&got, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("compacted trace differs from source")
	}
}

func TestCompactFileStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := randomTrace(t, rng, 400)
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	compactAndCompare(t, tr, buf.Bytes())
}

func TestCompactFileGzip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := randomTrace(t, rng, 300)
	var plain, zipped bytes.Buffer
	if err := trace.Write(&plain, tr); err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(&zipped)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	compactAndCompare(t, tr, zipped.Bytes())
}

// TestCompactFileOutOfOrderFallback: a native file whose events go back
// in time within a column cannot stream; CompactFile must transparently
// fall back to the materializing path and still produce an equivalent
// store.
func TestCompactFileOutOfOrderFallback(t *testing.T) {
	src := []byte(`# viva trace v1
resource h host -
set 10 h usage 5
set 4 h usage 2
set 20 h usage 7
end 30
`)
	tr, err := trace.Read(bytes.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	compactAndCompare(t, tr, src)
}

// TestCompactFileColumnarInput: recompacting a .vvc (e.g. with a
// different chunk size) goes through the materializing path.
func TestCompactFileColumnarInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	tr := randomTrace(t, rng, 200)
	var vvc bytes.Buffer
	if err := WriteTrace(&vvc, tr, WriterOptions{ChunkPoints: 8}); err != nil {
		t.Fatal(err)
	}
	compactAndCompare(t, tr, vvc.Bytes())
}

// compactReadAll compacts the native trace src through the streaming
// path and materializes the result back.
func compactReadAll(t *testing.T, src []byte) (*trace.Trace, error) {
	t.Helper()
	dir := t.TempDir()
	in, out := filepath.Join(dir, "in.trace"), filepath.Join(dir, "out.vvc")
	if err := os.WriteFile(in, src, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := CompactFile(in, out, ingest.Options{}, WriterOptions{ChunkPoints: 4}); err != nil {
		return nil, err
	}
	st, err := Open(out)
	if err != nil {
		t.Fatalf("compacted file does not open: %v", err)
	}
	defer st.Close()
	tr, err := st.ReadAll()
	if err != nil {
		t.Fatalf("compacted file does not read back: %v", err)
	}
	return tr, nil
}

// TestCompactFileRejectsNonFiniteTime: the store refuses what the heap
// reader refuses, one timed directive at a time.
func TestCompactFileRejectsNonFiniteTime(t *testing.T) {
	for directive, line := range map[string]string{
		"set":   "set inf h usage 1",
		"add":   "add -Inf h usage 1",
		"state": "state NaN h busy",
		"end":   "end +inf",
	} {
		src := "resource h host -\nset 0 h power 5\n" + line + "\nend 2\n"
		if _, err := compactReadAll(t, []byte(src)); err == nil {
			t.Errorf("%s: non-finite time accepted", directive)
		}
	}
}
