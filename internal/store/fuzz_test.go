package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"viva/internal/ingest"
	"viva/internal/trace"
)

// FuzzOpen feeds arbitrary bytes through the whole read path: Open must
// either succeed or return an error — never panic — and a successfully
// opened file must survive queries and full materialization. Seeds
// include a valid file and targeted corruptions of it (truncations,
// flipped lengths, bad magic).
func FuzzOpen(f *testing.F) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	tr.MustDeclareResource("h", trace.TypeHost, "g")
	tr.MustDeclareResource("l", trace.TypeLink, "g")
	tr.MustDeclareEdge("h", "l")
	rng := rand.New(rand.NewSource(1))
	now := 0.0
	for i := 0; i < 200; i++ {
		now += rng.Float64()
		if err := tr.Set(now, "h", trace.MetricUsage, rng.NormFloat64()); err != nil {
			f.Fatal(err)
		}
	}
	if err := tr.SetState(1, "h", "compute"); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, WriterOptions{ChunkPoints: 16}); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()

	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-trailerSize+3])
	f.Add([]byte(Magic))
	f.Add([]byte("VVC1xxxxxxxxxxxxxxxxxxxxxxxxxxxxVVC1"))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-trailerSize] ^= 0x40 // footer length
	f.Add(corrupt)
	corrupt = append([]byte(nil), valid...)
	corrupt[len(Magic)+2] ^= 0xff // chunk blob byte
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.vvc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		st, err := Open(path)
		if err != nil {
			return // rejected: fine, as long as we did not panic
		}
		defer st.Close()
		// A file that opened must answer queries without panicking, even
		// if its blobs are garbage (queries degrade to 0 + Store.Err).
		for _, r := range st.Resources() {
			for _, m := range st.MetricsOf(r.Name) {
				se := st.Series(r.Name, m)
				se.At(1)
				se.Integrate(0, 2)
				se.Mean(0, 2)
				se.Max(0, 2)
				se.Min(0, 2)
				se.Len()
			}
		}
		_, _ = st.ReadAll()
	})
}

// FuzzCompactMatchesRead holds the two native readers to one grammar:
// trace.Read into the heap, and streaming CompactFile into a .vvc read
// back with ReadAll. Both must reject an input, or both accept it with
// byte-equal trace.Write output. Inputs CompactFile would route to
// another reader (gzip, Paje, .vvc) are out of scope.
func FuzzCompactMatchesRead(f *testing.F) {
	f.Add([]byte("resource h host -\nset 0 h power 5\nset inf h usage 1\nend 2\n"))
	f.Add([]byte("resource h host -\nset 0 h u 1e308\nadd 1 h u 1e308\n"))
	f.Add([]byte("# viva trace v1\nresource g group -\nresource h host g\nresource l link g\nedge h l\n" +
		"set 0 h power 5\nadd 1 h usage 2\nadd 1 h usage 3\nset 2 l traffic 1\nset 2 h usage 0\n" +
		"set 3 h usage 1\nset 4 h usage 2\nstate 2 h busy\nstate 3 h -\nend 9\n"))
	f.Add([]byte("resource h host -\nset 10 h usage 5\nset 4 h usage 2\nadd 20 h usage 7\nend 30\n"))
	f.Fuzz(func(t *testing.T, src []byte) {
		if ingest.IsGzip(src) || ingest.IsPaje(src) || IsColumnar(src) {
			t.Skip()
		}
		heap, herr := trace.Read(bytes.NewReader(src))
		col, cerr := compactReadAll(t, src)
		if (herr == nil) != (cerr == nil) {
			t.Fatalf("trace.Read err = %v, CompactFile err = %v", herr, cerr)
		}
		if herr != nil {
			return
		}
		var want, got bytes.Buffer
		if err := trace.Write(&want, heap); err != nil {
			t.Fatal(err)
		}
		if err := trace.Write(&got, col); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("readers disagree\nheap:\n%s\nstore:\n%s", want.Bytes(), got.Bytes())
		}
	})
}
