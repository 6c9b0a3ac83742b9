package store

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"viva/internal/aggregation"
	"viva/internal/trace"
)

// The store is a drop-in aggregation source.
var _ aggregation.Source = (*Store)(nil)

// writeTempStore serialises tr to a temp .vvc and opens it.
func writeTempStore(t *testing.T, tr *trace.Trace, wopt WriterOptions, oopt OpenOptions) *Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.vvc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, tr, wopt); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := OpenWith(path, oopt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// randomTrace builds a trace with several resources and metrics, point
// counts straddling typical chunk sizes, and an occasional equal-time
// overwrite (the trace model allows it).
func randomTrace(t *testing.T, rng *rand.Rand, events int) *trace.Trace {
	t.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	names := []string{"h0", "h1", "l0"}
	tr.MustDeclareResource("h0", trace.TypeHost, "root")
	tr.MustDeclareResource("h1", trace.TypeHost, "root")
	tr.MustDeclareResource("l0", trace.TypeLink, "root")
	tr.MustDeclareEdge("h0", "l0")
	tr.MustDeclareEdge("h1", "l0")
	metrics := []string{trace.MetricPower, trace.MetricUsage}
	now := 0.0
	for i := 0; i < events; i++ {
		if rng.Intn(8) != 0 {
			now += rng.Float64()
		}
		r := names[rng.Intn(len(names))]
		m := metrics[rng.Intn(len(metrics))]
		if err := tr.Set(now, r, m, math.Round(rng.NormFloat64()*100)/4); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SetState(1, "h0", "compute"); err != nil {
		t.Fatal(err)
	}
	tr.SetEnd(now + 1)
	return tr
}

// TestDifferentialSeries is the tentpole's correctness proof: every
// Series query on a ColumnSeries must be bit-identical to the in-heap
// Timeline over randomized windows, including the b<a and [a,a] edge
// semantics.
func TestDifferentialSeries(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, chunkPoints := range []int{1, 3, 16, DefaultChunkPoints} {
		tr := randomTrace(t, rng, 700)
		st := writeTempStore(t, tr, WriterOptions{ChunkPoints: chunkPoints}, OpenOptions{})
		_, end := tr.Window()
		for _, r := range tr.Resources() {
			for _, m := range tr.MetricsOf(r.Name) {
				heap := tr.Series(r.Name, m)
				disk := st.Series(r.Name, m)
				if heap.Len() != disk.Len() {
					t.Fatalf("chunk=%d %s/%s: Len %d != %d", chunkPoints, r.Name, m, disk.Len(), heap.Len())
				}
				if heap.FirstTime() != disk.FirstTime() || heap.LastTime() != disk.LastTime() {
					t.Fatalf("chunk=%d %s/%s: First/Last mismatch", chunkPoints, r.Name, m)
				}
				check := func(a, b float64) bool {
					return heap.At(a) == disk.At(a) &&
						heap.Integrate(a, b) == disk.Integrate(a, b) &&
						heap.Mean(a, b) == disk.Mean(a, b) &&
						heap.Max(a, b) == disk.Max(a, b) &&
						heap.Min(a, b) == disk.Min(a, b)
				}
				prop := func(x, y float64) bool {
					a := math.Mod(math.Abs(x), end+2) - 1
					b := math.Mod(math.Abs(y), end+2) - 1
					return check(a, b) && check(b, a) && check(a, a)
				}
				if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
					t.Errorf("chunk=%d %s/%s: %v", chunkPoints, r.Name, m, err)
				}
				// Exact chunk-boundary times are the off-by-one hot spots.
				for _, p := range tr.Timeline(r.Name, m).Points() {
					if !check(p.T, p.T+0.5) || !check(p.T-0.5, p.T) {
						t.Fatalf("chunk=%d %s/%s: mismatch at point t=%g", chunkPoints, r.Name, m, p.T)
					}
				}
			}
		}
		if err := st.Err(); err != nil {
			t.Fatalf("chunk=%d: store error: %v", chunkPoints, err)
		}
	}
}

// TestRoundTrip: WriteTrace → Open → ReadAll must reproduce the trace
// exactly — catalog, edges, states, window and every timeline.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr := randomTrace(t, rng, 500)
	st := writeTempStore(t, tr, WriterOptions{ChunkPoints: 16}, OpenOptions{})

	back, err := st.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.Write(&a, tr); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&b, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("round-tripped trace serialises differently")
	}

	// Catalog views must agree too.
	if got, want := st.Metrics(), tr.Metrics(); len(got) != len(want) {
		t.Fatalf("Metrics %v != %v", got, want)
	}
	ws, we := tr.Window()
	ss, se := st.Window()
	if ws != ss || we != se {
		t.Fatalf("Window (%g,%g) != (%g,%g)", ss, se, ws, we)
	}
	if back.StateAt("h0", 2) != "compute" {
		t.Fatal("state lost in round trip")
	}
}

// TestStoreAggregation runs the real aggregation engine over both
// backends: identical Stats on every group×metric×slice.
func TestStoreAggregation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := randomTrace(t, rng, 600)
	st := writeTempStore(t, tr, WriterOptions{ChunkPoints: 8}, OpenOptions{CacheBytes: 1 << 12})

	agHeap, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	agDisk, err := aggregation.NewAggregator(st)
	if err != nil {
		t.Fatal(err)
	}
	_, end := tr.Window()
	for i := 0; i < 50; i++ {
		a := rng.Float64() * end
		s := aggregation.TimeSlice{Start: a, End: a + rng.Float64()*end/4}
		for _, metric := range []string{trace.MetricPower, trace.MetricUsage} {
			h, err := agHeap.Stats("root", trace.TypeHost, metric, s)
			if err != nil {
				t.Fatal(err)
			}
			d, err := agDisk.Stats("root", trace.TypeHost, metric, s)
			if err != nil {
				t.Fatal(err)
			}
			if h != d {
				t.Fatalf("Stats(%v, %s): heap %+v != disk %+v", s, metric, h, d)
			}
		}
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestWriterOutOfOrder: the streaming writer refuses to go back in time
// with the sentinel the compactor's fallback keys on.
func TestWriterOutOfOrder(t *testing.T) {
	w, err := NewWriter(&bytes.Buffer{}, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.DeclareResource("h", trace.TypeHost, ""); err != nil {
		t.Fatal(err)
	}
	if err := w.Set(5, "h", "m", 1); err != nil {
		t.Fatal(err)
	}
	if err := w.Set(5, "h", "m", 2); err != nil {
		t.Fatal(err) // equal-time overwrite is legal
	}
	err = w.Set(4, "h", "m", 3)
	if err == nil || !isOutOfOrder(err) {
		t.Fatalf("want ErrOutOfOrder, got %v", err)
	}
}

func isOutOfOrder(err error) bool {
	for ; err != nil; err = unwrap(err) {
		if err == ErrOutOfOrder {
			return true
		}
	}
	return false
}

func unwrap(err error) error {
	u, ok := err.(interface{ Unwrap() error })
	if !ok {
		return nil
	}
	return u.Unwrap()
}

// TestOpenRejectsCorrupt exercises the failure paths the fuzz target
// walks: truncation, bad magic, flipped footer bytes must all error.
func TestOpenRejectsCorrupt(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := randomTrace(t, rng, 200)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, tr, WriterOptions{ChunkPoints: 8}); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	openBytes := func(b []byte) error {
		path := filepath.Join(t.TempDir(), "c.vvc")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err == nil {
			st.Close()
		}
		return err
	}

	if err := openBytes(valid); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 1, len(valid) - trailerSize} {
		if err := openBytes(valid[:cut]); err == nil {
			t.Errorf("truncation to %d bytes accepted", cut)
		}
	}
	bad := append([]byte(nil), valid...)
	bad[0] = 'X'
	if err := openBytes(bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Flip a byte in the footer region: CRC must catch it.
	bad = append([]byte(nil), valid...)
	bad[len(bad)-trailerSize-5] ^= 0xff
	if err := openBytes(bad); err == nil {
		t.Error("corrupt footer accepted")
	}
}
