package trace_test

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"viva/internal/store"
	"viva/internal/trace"
)

// FuzzColumnQueries holds the one Eq. 1 kernel to its references on
// fuzzed point sets: a heap timeline closing chunks of 1, 3, 16 or
// DefaultChunkPoints points, grown through equal-time overwrites, one
// out-of-order insert that rewrites the prefixes and directory after it,
// and more monotone appends, must answer At, Max and Min exactly as the
// direct scans and Integrate within the scans' total-variation
// tolerance; and the same column written to a .vvc store with the same
// chunk size must answer every query == the heap.
func FuzzColumnQueries(f *testing.F) {
	for sel := uint8(0); sel < 4; sel++ {
		f.Add(int64(sel), uint16(40), sel)
	}
	f.Add(int64(7), uint16(2*trace.DefaultChunkPoints+300), uint8(3))
	f.Add(int64(9), uint16(1), uint8(0))
	f.Add(int64(11), uint16(0), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, npts uint16, sel uint8) {
		size := []int{1, 3, 16, trace.DefaultChunkPoints}[sel%4]
		n := int(npts) % (3 * trace.DefaultChunkPoints)
		rng := rand.New(rand.NewSource(seed))
		defer trace.SetChunkPoints(size)()

		tr := trace.New()
		tr.MustDeclareResource("h", trace.TypeHost, "")
		set := func(at float64) {
			if err := tr.Set(at, "h", "m", math.Round(rng.NormFloat64()*400)/4); err != nil {
				t.Fatal(err)
			}
		}
		now := -5 + rng.Float64()*5
		appendPoints := func(k int) {
			for i := 0; i < k; i++ {
				if i > 0 && rng.Intn(5) == 0 {
					set(now) // equal-time overwrite of the last point
					continue
				}
				now += 0.01 + rng.Float64()
				set(now)
			}
		}
		half := n / 2
		appendPoints(half)
		tl := tr.Timeline("h", "m")
		if tl.Len() > 1 {
			// One out-of-order insert between the first and last points.
			set(tl.FirstTime() + rng.Float64()*(tl.LastTime()-tl.FirstTime()))
		}
		appendPoints(n - half)
		tr.SetEnd(now + 1)
		// With no first half, the points went to a timeline created after
		// tl was looked up.
		tl = tr.Timeline("h", "m")

		atScan, integScan, maxScan, minScan := tl.Scans()
		path := filepath.Join(t.TempDir(), "c.vvc")
		out, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.WriteTrace(out, tr, store.WriterOptions{ChunkPoints: size}); err != nil {
			t.Fatal(err)
		}
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
		st, err := store.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		disk := st.Series("h", "m")
		if disk.Len() != tl.Len() || disk.FirstTime() != tl.FirstTime() || disk.LastTime() != tl.LastTime() {
			t.Fatalf("store Len/First/Last (%d, %g, %g) != heap (%d, %g, %g)",
				disk.Len(), disk.FirstTime(), disk.LastTime(), tl.Len(), tl.FirstTime(), tl.LastTime())
		}

		pts := tl.Points()
		variation := 1.0
		for _, p := range pts {
			variation += math.Abs(p.V)
		}
		check := func(a, b float64) {
			t.Helper()
			if got, want := tl.At(a), atScan(a); got != want {
				t.Fatalf("size %d: At(%g) = %g, scan %g", size, a, got, want)
			}
			if got, want := tl.Max(a, b), maxScan(a, b); got != want {
				t.Fatalf("size %d: Max(%g, %g) = %g, scan %g", size, a, b, got, want)
			}
			if got, want := tl.Min(a, b), minScan(a, b); got != want {
				t.Fatalf("size %d: Min(%g, %g) = %g, scan %g", size, a, b, got, want)
			}
			got, want := tl.Integrate(a, b), integScan(a, b)
			if math.Abs(got-want) > 1e-9*variation*(1+math.Abs(b-a)+math.Abs(a)) {
				t.Fatalf("size %d: Integrate(%g, %g) = %g, scan %g", size, a, b, got, want)
			}
			if disk.At(a) != tl.At(a) || disk.Integrate(a, b) != got || disk.Mean(a, b) != tl.Mean(a, b) ||
				disk.Max(a, b) != tl.Max(a, b) || disk.Min(a, b) != tl.Min(a, b) {
				t.Fatalf("size %d: store and heap disagree on [%g, %g]", size, a, b)
			}
		}
		lo, hi := tl.FirstTime()-1, tl.LastTime()+1
		for i := 0; i < 100; i++ {
			a := lo + rng.Float64()*(hi-lo)
			b := lo + rng.Float64()*(hi-lo)
			check(a, b)
			check(b, a)
			check(a, a)
		}
		// Chunk boundaries: windows from and to the first and last point of
		// every chunk.
		for k := 0; k < len(pts); k += size {
			last := min(k+size, len(pts)) - 1
			check(pts[k].T, pts[last].T)
			check(pts[k].T, hi)
			check(lo, pts[last].T)
			check(pts[last].T, pts[len(pts)-1].T)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
	})
}
