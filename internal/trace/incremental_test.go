package trace

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// TestIndexIncrementalAppend drives the monotone-append fast path: query
// early, keep appending (and occasionally overwriting the last point),
// and check every windowed query against the O(n) scans after each
// mutation. This is the live-pipeline shape: the prefixes and directory
// each Set keeps must stay correct without wholesale rebuilds.
func TestIndexIncrementalAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tl := &Timeline{}
	tl.Set(0, 1)
	if got := tl.Integrate(0, 1); got != 1 {
		t.Fatalf("warm-up Integrate = %g, want 1", got)
	}
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

// TestIndexIncrementalMatchesRebuild checks that a timeline queried while
// it grows answers exactly like a fresh one of the same points (prefix
// values must be bit-identical: both sides run the same left-to-right
// recurrence).
func TestIndexIncrementalMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	live := &Timeline{}
	live.Set(0, 2)
	_ = live.Integrate(0, 1) // query early, then keep growing
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
// an out-of-order insert rewrites the prefixes after it.
func TestIndexAppendAfterOutOfOrder(t *testing.T) {
	tl := &Timeline{}
	tl.Set(0, 1)
	tl.Set(10, 3)
	_ = tl.Integrate(0, 10)
	tl.Set(5, 2) // out of order
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
// chunks, queried while it was still one open chunk and grown across
// every chunk close, with windows that start and end exactly on chunk
// boundaries: At, Max and Min must equal the scans, and Integrate must
// equal a fresh timeline of the same points bit for bit.
func TestIndexAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tl := &Timeline{}
	tl.Set(0, 1)
	_ = tl.Integrate(0, 1) // query the single open chunk, then grow it
	now := 0.0
	for tl.Len() < 2*DefaultChunkPoints+DefaultChunkPoints/2 {
		if rng.Intn(6) > 0 {
			now += 0.1 + rng.Float64()
		}
		tl.Set(now, math.Round(rng.NormFloat64()*40)/4)
	}
	if got := len(tl.dir); got != 2 {
		t.Fatalf("%d closed chunks, want 2", got)
	}
	fresh := NewTimeline(tl.Points()...)
	var bounds []float64
	for k := 0; k < tl.Len(); k += DefaultChunkPoints {
		bounds = append(bounds, tl.pts.Times[k], tl.pts.Times[min(k+DefaultChunkPoints, tl.Len())-1])
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
				t.Fatalf("Integrate(%g, %g) = %g, fresh timeline %g", a, b, got, want)
			}
		}
	}
}

// TestOutOfOrderSetMatchesFresh lands an out-of-order Set in each place
// it can fall, on a timeline of two closed chunks of 4 points and a full
// open tail: the directory, the prefixes and every query over windows on
// chunk boundaries must equal a fresh timeline of the same points, bit
// for bit.
func TestOutOfOrderSetMatchesFresh(t *testing.T) {
	defer SetChunkPoints(4)()
	cases := []struct {
		name string
		t, v float64
	}{
		{"inside a closed chunk", 2.5, 7.25},
		{"inside the open tail", 9.5, -3.5},
		{"before the first point", -1, 4.75},
		{"equal-time overwrite inside a closed chunk", 5, 11.5},
		{"equal-time overwrite of a closed chunk's last point", 3, -0.125},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tl := &Timeline{}
			for i := 0; i < 12; i++ {
				tl.Set(float64(i), float64((i*37)%11)/4-1)
			}
			if len(tl.dir) != 2 {
				t.Fatalf("%d closed chunks before the Set, want 2", len(tl.dir))
			}
			tl.Set(c.t, c.v)
			fresh := NewTimeline(tl.Points()...)

			bits := func(xs ...float64) []uint64 {
				out := make([]uint64, len(xs))
				for i, x := range xs {
					out[i] = math.Float64bits(x)
				}
				return out
			}
			if len(tl.dir) != len(fresh.dir) || tl.open != fresh.open {
				t.Fatalf("%d closed chunks, open at %d; fresh %d, %d", len(tl.dir), tl.open, len(fresh.dir), fresh.open)
			}
			for k := range tl.dir {
				g, w := tl.dir[k], fresh.dir[k]
				if g.Count != w.Count || !slices.Equal(
					bits(g.FirstT, g.LastT, g.LastV, g.PrefFirst, g.PrefLast, g.Min, g.Max),
					bits(w.FirstT, w.LastT, w.LastV, w.PrefFirst, w.PrefLast, w.Min, w.Max)) {
					t.Fatalf("chunk %d: %+v, fresh %+v", k, g, w)
				}
			}
			if !slices.Equal(bits(tl.pts.Prefix...), bits(fresh.pts.Prefix...)) {
				t.Fatalf("prefixes %v, fresh %v", tl.pts.Prefix, fresh.pts.Prefix)
			}

			bounds := []float64{-2, tl.LastTime() + 1}
			for k := 0; k < tl.Len(); k += chunkPoints {
				bounds = append(bounds, tl.pts.Times[k], tl.pts.Times[min(k+chunkPoints, tl.Len())-1])
			}
			for _, a := range bounds {
				if g, w := tl.At(a), fresh.At(a); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("At(%g) = %g, fresh %g", a, g, w)
				}
				for _, b := range bounds {
					got := bits(tl.Integrate(a, b), tl.Max(a, b), tl.Min(a, b))
					want := bits(fresh.Integrate(a, b), fresh.Max(a, b), fresh.Min(a, b))
					if !slices.Equal(got, want) {
						t.Fatalf("[%g, %g]: Integrate/Max/Min %v, fresh %v", a, b, got, want)
					}
				}
			}
		})
	}
}
