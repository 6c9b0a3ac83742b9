package trace

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestTimelineWindowSemantics pins the unified empty-window convention
// shared by every windowed query: b < a is empty (0 everywhere); [a, a]
// is the single instant a, where Integrate has measure 0 and Mean/Max/Min
// return the instantaneous value At(a).
func TestTimelineWindowSemantics(t *testing.T) {
	tl := NewTimeline(Point{0, 5}, Point{2, 9}, Point{4, 1})
	empty := &Timeline{}
	cases := []struct {
		name                    string
		tl                      *Timeline
		a, b                    float64
		integ, mean, maxV, minV float64
	}{
		{"inverted", tl, 3, 1, 0, 0, 0, 0},
		{"inverted before first point", tl, -1, -2, 0, 0, 0, 0},
		{"degenerate inside", tl, 3, 3, 0, 9, 9, 9},
		{"degenerate on a point", tl, 2, 2, 0, 9, 9, 9},
		{"degenerate before first point", tl, -1, -1, 0, 0, 0, 0},
		{"degenerate past last point", tl, 10, 10, 0, 1, 1, 1},
		{"empty timeline inverted", empty, 1, 0, 0, 0, 0, 0},
		{"empty timeline degenerate", empty, 1, 1, 0, 0, 0, 0},
		{"empty timeline proper", empty, 0, 1, 0, 0, 0, 0},
		{"proper window", tl, 1, 3, 5 + 9, 7, 9, 5},
		{"window before first point", tl, -3, -1, 0, 0, 0, 0},
		{"window straddling first point", tl, -2, 1, 5, 5.0 / 3, 5, 0},
		{"window past last point", tl, 5, 7, 2, 1, 1, 1},
	}
	for _, c := range cases {
		if got := c.tl.Integrate(c.a, c.b); got != c.integ {
			t.Errorf("%s: Integrate(%g,%g) = %g, want %g", c.name, c.a, c.b, got, c.integ)
		}
		if got := c.tl.Mean(c.a, c.b); math.Abs(got-c.mean) > 1e-12 {
			t.Errorf("%s: Mean(%g,%g) = %g, want %g", c.name, c.a, c.b, got, c.mean)
		}
		if got := c.tl.Max(c.a, c.b); got != c.maxV {
			t.Errorf("%s: Max(%g,%g) = %g, want %g", c.name, c.a, c.b, got, c.maxV)
		}
		if got := c.tl.Min(c.a, c.b); got != c.minV {
			t.Errorf("%s: Min(%g,%g) = %g, want %g", c.name, c.a, c.b, got, c.minV)
		}
	}
}

// randomMutatedTimeline builds a timeline with a random number of points
// at random (possibly duplicate) times, via the public mutators so the
// prefixes and directory grow exactly as in production.
func randomMutatedTimeline(rr *rand.Rand) *Timeline {
	tl := &Timeline{}
	n := rr.Intn(60)
	t := -5 + rr.Float64()*5
	for i := 0; i < n; i++ {
		if rr.Intn(4) > 0 {
			t += rr.Float64() * 3
		} // else: overwrite the same time
		tl.Set(t, math.Floor((rr.Float64()-0.3)*100)/4)
	}
	return tl
}

// randomWindow picks windows that include the awkward cases: before the
// first point, past the last, inverted, degenerate, and straddling.
func randomWindow(rr *rand.Rand, tl *Timeline) (a, b float64) {
	lo, hi := tl.FirstTime()-10, tl.LastTime()+10
	a = lo + rr.Float64()*(hi-lo)
	switch rr.Intn(5) {
	case 0:
		b = a // degenerate
	case 1:
		b = a - rr.Float64()*5 // inverted
	default:
		b = a + rr.Float64()*(hi-a)
	}
	return a, b
}

// TestTimelineIndexedMatchesScan is the indexed-vs-scan equivalence
// property: on random timelines and random windows, Max/Min agree with
// the direct scan bit-for-bit (they only select stored values), and
// Integrate/Mean agree up to FP associativity (the prefix-sum difference
// associates additions differently from the left-to-right scan; the
// values addressed are identical, so the bound is a few ULPs scaled by
// the integral's magnitude).
func TestTimelineIndexedMatchesScan(t *testing.T) {
	rr := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r2 := rand.New(rand.NewSource(seed))
		tl := randomMutatedTimeline(r2)
		for k := 0; k < 20; k++ {
			a, b := randomWindow(r2, tl)
			if got, want := tl.Max(a, b), tl.maxScan(a, b); got != want {
				t.Logf("Max(%g,%g) = %g, scan %g on %v", a, b, got, want, tl)
				return false
			}
			if got, want := tl.Min(a, b), tl.minScan(a, b); got != want {
				t.Logf("Min(%g,%g) = %g, scan %g on %v", a, b, got, want, tl)
				return false
			}
			got, want := tl.Integrate(a, b), tl.integrateScan(a, b)
			// Scale the tolerance by the total variation the scan walks
			// through, not the (possibly cancelling) result.
			scale := 1.0
			for _, p := range tl.Points() {
				scale += math.Abs(p.V)
			}
			scale *= 1 + math.Abs(b-a) + math.Abs(a)
			if math.Abs(got-want) > 1e-9*scale {
				t.Logf("Integrate(%g,%g) = %g, scan %g on %v", a, b, got, want, tl)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rr}); err != nil {
		t.Error(err)
	}
}

// TestTimelineIndexInvalidation mutates a timeline after a query and
// re-queries: the prefixes and directory must follow every mutation path
// (append, overwrite, out-of-order insert, Add, Compact).
func TestTimelineIndexInvalidation(t *testing.T) {
	tl := NewTimeline(Point{0, 2}, Point{10, 4})
	if got := tl.Integrate(0, 10); got != 20 {
		t.Fatalf("warm-up Integrate = %g, want 20", got)
	}

	// Append past the end.
	tl.Set(20, 100)
	if got := tl.Max(0, 25); got != 100 {
		t.Errorf("Max after append = %g, want 100", got)
	}

	// Overwrite the last point.
	tl.Set(20, 6)
	if got := tl.Max(0, 25); got != 6 {
		t.Errorf("Max after overwrite = %g, want 6", got)
	}

	// Out-of-order insert in the middle.
	tl.Set(5, 0)
	if got := tl.Integrate(0, 10); got != 2*5+0*5 {
		t.Errorf("Integrate after insert = %g, want 10", got)
	}

	// Add (delta on the value just before t).
	tl.Add(15, -3)
	if got := tl.Min(12, 18); got != 1 {
		t.Errorf("Min after Add = %g, want 1", got)
	}

	// Compact after making two runs equal.
	tl.Set(5, 2)
	if got := tl.Integrate(0, 10); got != 20 {
		t.Fatalf("Integrate before Compact = %g, want 20", got)
	}
	tl.Compact()
	if got := tl.Integrate(0, 10); got != 20 {
		t.Errorf("Integrate after Compact = %g, want 20", got)
	}
}

// TestTimelineConcurrentReads queries one timeline from many goroutines
// (the parallel vizgraph build reads timelines concurrently); run under
// -race this pins that a query writes nothing.
func TestTimelineConcurrentReads(t *testing.T) {
	tl := NewTimeline(Point{0, 1}, Point{1, 3}, Point{2, 2}, Point{3, 7})
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			ok := true
			for i := 0; i < 200; i++ {
				ok = ok && tl.Integrate(0.5, 2.5) == 1*0.5+3+2*0.5 && tl.Max(0, 3) == 7
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent indexed query returned a wrong value")
		}
	}
}
