package trace

import (
	"math"
	"math/rand"
	"testing"
)

// TestIndexIncrementalAppend drives the monotone-append fast path: build
// the index early, keep appending (and occasionally overwriting the last
// point), and check every windowed query against the O(n) scans after each
// mutation. This is the live-pipeline shape: the index must stay correct
// without wholesale rebuilds.
func TestIndexIncrementalAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tl := &Timeline{}
	tl.Set(0, 1)
	// Force the index to exist before the appends start.
	if got := tl.Integrate(0, 1); got != 1 {
		t.Fatalf("warm-up Integrate = %g, want 1", got)
	}
	ix := tl.idx.Load()
	time := 0.0
	for i := 0; i < 300; i++ {
		switch rng.Intn(4) {
		case 0:
			// Equal-time overwrite of the last point.
			tl.Set(time, rng.NormFloat64()*10)
		default:
			time += rng.Float64() * 3
			tl.Set(time, rng.NormFloat64()*10)
		}
		if tl.idx.Load() != ix {
			t.Fatalf("step %d: monotone mutation dropped or rebuilt the index", i)
		}
		a := rng.Float64() * time
		b := rng.Float64() * time
		// Prefix-sum and scan associate additions differently; compare with
		// the same variation-scaled tolerance the property suite uses.
		scale := 1.0
		for _, p := range tl.Points() {
			scale += math.Abs(p.V)
		}
		scale *= 1 + math.Abs(b-a) + math.Abs(a)
		if got, want := tl.Integrate(a, b), tl.integrateScan(a, b); math.Abs(got-want) > 1e-9*scale {
			t.Fatalf("step %d: Integrate(%g,%g) = %g, scan = %g", i, a, b, got, want)
		}
		if got, want := tl.Max(a, b), tl.maxScan(a, b); got != want {
			t.Fatalf("step %d: Max(%g,%g) = %g, scan = %g", i, a, b, got, want)
		}
		if got, want := tl.Min(a, b), tl.minScan(a, b); got != want {
			t.Fatalf("step %d: Min(%g,%g) = %g, scan = %g", i, a, b, got, want)
		}
	}
}

// TestIndexIncrementalMatchesRebuild checks that an incrementally extended
// index answers exactly like a freshly built one (prefix values must be
// bit-identical: both sides run the same left-to-right recurrence).
func TestIndexIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	live := &Timeline{}
	live.Set(0, 2)
	_ = live.Integrate(0, 1) // build early, then extend incrementally
	time := 0.0
	for i := 0; i < 100; i++ {
		time += rng.Float64()
		live.Set(time, rng.Float64()*5)
	}
	fresh := NewTimeline(live.Points()...)
	for i := 0; i < 50; i++ {
		a := rng.Float64() * time
		b := a + rng.Float64()*time
		if got, want := live.Integrate(a, b), fresh.Integrate(a, b); got != want {
			t.Fatalf("Integrate(%g,%g): incremental %g != rebuilt %g", a, b, got, want)
		}
	}
}

// TestIndexAppendAfterOutOfOrder makes sure the fast path recovers after
// an out-of-order insert invalidates the index.
func TestIndexAppendAfterOutOfOrder(t *testing.T) {
	tl := &Timeline{}
	tl.Set(0, 1)
	tl.Set(10, 3)
	_ = tl.Integrate(0, 10)
	tl.Set(5, 2) // out of order: must invalidate
	if tl.idx.Load() != nil {
		t.Fatal("out-of-order insert did not invalidate the index")
	}
	tl.Set(20, 4)
	if got, want := tl.Integrate(0, 20), tl.integrateScan(0, 20); got != want {
		t.Fatalf("Integrate after recovery = %g, scan = %g", got, want)
	}
}

// TestResourcesCopy is the accessor-audit regression test: mutating the
// structs returned by Resource, Resources, and ResourcesOfType must not
// corrupt the hierarchy the trace owns.
func TestResourcesCopy(t *testing.T) {
	tr := New()
	tr.MustDeclareResource("root", TypeGroup, "")
	tr.MustDeclareResource("h0", TypeHost, "root")

	tr.Resource("h0").Parent = "corrupted"
	tr.Resources()[1].Type = "corrupted"
	tr.ResourcesOfType(TypeHost)[0].Name = "corrupted"

	r := tr.Resource("h0")
	if r.Name != "h0" || r.Type != TypeHost || r.Parent != "root" {
		t.Fatalf("trace internals mutated through accessor copies: %+v", r)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after accessor mutation: %v", err)
	}
}

// TestPointsCopy: mutating the slice Points returns must not touch the
// timeline.
func TestPointsCopy(t *testing.T) {
	tl := NewTimeline(Point{0, 1}, Point{1, 2})
	pts := tl.Points()
	pts[0].V = 99
	if got := tl.At(0); got != 1 {
		t.Fatalf("At(0) = %g after mutating Points() copy, want 1", got)
	}
}

// TestStatePointsCopy: the exported state events are a fresh copy in time
// order.
func TestStatePointsCopy(t *testing.T) {
	tr := New()
	tr.MustDeclareResource("h", TypeHost, "")
	if err := tr.SetState(1, "h", "compute"); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetState(3, "h", ""); err != nil {
		t.Fatal(err)
	}
	pts := tr.StatePoints("h")
	if len(pts) != 2 || pts[0] != (StatePoint{1, "compute"}) || pts[1] != (StatePoint{3, ""}) {
		t.Fatalf("StatePoints = %+v", pts)
	}
	pts[0].Value = "corrupted"
	if got := tr.StateAt("h", 2); got != "compute" {
		t.Fatalf("StateAt after mutating copy = %q", got)
	}
}

// TestIndexAcrossChunks drives a timeline of more than two default
// chunks, its index built while it was still one open chunk and
// extended in place across every chunk close, with windows that start
// and end exactly on chunk boundaries: At, Max and Min must equal the
// scans, and Integrate must equal a freshly built index bit for bit.
func TestIndexAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tl := &Timeline{}
	tl.Set(0, 1)
	_ = tl.Integrate(0, 1) // index the single open chunk, then grow it
	ix := tl.idx.Load()
	now := 0.0
	for tl.Len() < 2*DefaultChunkPoints+DefaultChunkPoints/2 {
		if rng.Intn(6) > 0 {
			now += 0.1 + rng.Float64()
		}
		tl.Set(now, math.Round(rng.NormFloat64()*40)/4)
	}
	if tl.idx.Load() != ix {
		t.Fatal("monotone growth across chunk closes dropped or rebuilt the index")
	}
	if got := len(ix.ext.dir); got != 2 {
		t.Fatalf("%d closed chunks, want 2", got)
	}
	fresh := NewTimeline(tl.Points()...)
	var bounds []float64
	for k := 0; k < tl.Len(); k += DefaultChunkPoints {
		bounds = append(bounds, tl.times[k], tl.times[min(k+DefaultChunkPoints, tl.Len())-1])
	}
	bounds = append(bounds, -1, now+1)
	for _, a := range bounds {
		for _, b := range bounds {
			if got, want := tl.At(a), tl.atScan(a); got != want {
				t.Fatalf("At(%g) = %g, scan %g", a, got, want)
			}
			if got, want := tl.Max(a, b), tl.maxScan(a, b); got != want {
				t.Fatalf("Max(%g, %g) = %g, scan %g", a, b, got, want)
			}
			if got, want := tl.Min(a, b), tl.minScan(a, b); got != want {
				t.Fatalf("Min(%g, %g) = %g, scan %g", a, b, got, want)
			}
			if got, want := tl.Integrate(a, b), fresh.Integrate(a, b); got != want {
				t.Fatalf("Integrate(%g, %g) = %g, rebuilt index %g", a, b, got, want)
			}
		}
	}
}
