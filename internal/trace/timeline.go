package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Point is one sample of a piecewise-constant timeline: the value V holds
// from time T (inclusive) until the time of the next point (exclusive).
type Point struct {
	T float64
	V float64
}

// chunkPoints is the size of a heap timeline's closed chunks. Only tests
// vary it, to drive chunk closes and boundaries with few points.
var chunkPoints = DefaultChunkPoints

// Timeline is a piecewise-constant function of time. Before the first
// point the value is 0. Points are kept sorted by time; setting a value at
// the time of an existing point overwrites it.
//
// A timeline is its own Eq. 1 column (see Column), every point resident
// and no loader: closed chunk k is points [k·chunkPoints,
// (k+1)·chunkPoints). Every Set keeps the absolute prefix of each point
// and the directory of the closed chunks up to date, so a query only
// reads them. A full chunk closes when a strictly later point arrives,
// so an overwrite of the last point never touches a closed chunk.
//
// The zero value is an empty timeline, identically 0, ready to use.
//
// # Window semantics
//
// Every windowed query (Integrate, Mean, Max, Min) shares one convention:
// an inverted window (b < a) is empty and yields 0; the degenerate window
// [a, a] contains the single instant a, so Mean, Max and Min return the
// instantaneous value At(a) while Integrate returns 0 (zero measure).
//
// # Concurrency
//
// Queries only read the timeline, so it is safe for concurrent reads;
// like the Trace that owns it, it is not safe for mutation concurrent
// with anything else.
type Timeline Column

// NewTimeline returns a timeline initialised with the given points, which
// need not be sorted. Duplicate times keep the last value given.
func NewTimeline(points ...Point) *Timeline {
	tl := &Timeline{}
	sorted := make([]Point, len(points))
	copy(sorted, points)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].T < sorted[j].T })
	for _, p := range sorted {
		tl.Set(p.T, p.V)
	}
	return tl
}

// Set records that the value is v from time t on. Out-of-order sets are
// accepted, but the common fast path is monotonically non-decreasing
// time: appending past the last point costs one prefix step (and, when
// it closes a chunk, one chunk summary); overwriting the last point
// costs nothing more. Inserting or overwriting at an earlier point i
// recomputes the prefixes from i on and the directory from i's chunk on.
func (tl *Timeline) Set(t, v float64) {
	p := &tl.pts
	n := len(p.Times)
	switch {
	case n == 0 || t > p.Times[n-1]:
		tl.grow()
		pref := 0.0
		if n > 0 {
			pref = IntegralAt(p.Prefix[n-1], p.Values[n-1], p.Times[n-1], t)
			if n == tl.open+chunkPoints {
				tl.closeChunk()
			}
		}
		p.Times = append(p.Times, t)
		p.Values = append(p.Values, v)
		p.Prefix = append(p.Prefix, pref)
	case t == p.Times[n-1]:
		// Its prefix integrates only up to its own time, which did not
		// move, and it lies in the open tail.
		p.Values[n-1] = v
	default:
		i := sort.SearchFloat64s(p.Times, t)
		if p.Times[i] == t {
			p.Values[i] = v
		} else {
			tl.grow()
			p.Times = slices.Insert(p.Times, i, t)
			p.Values = slices.Insert(p.Values, i, v)
			p.Prefix = slices.Insert(p.Prefix, i, 0)
		}
		tl.reindex(i)
	}
}

// grow makes room for one more point. The arrays grow together in one
// allocation at the rate append grows a slice of 24-byte points.
func (tl *Timeline) grow() {
	p := &tl.pts
	n := len(p.Times)
	if n < cap(p.Times) {
		return
	}
	c := 2 * n
	if n >= 256 {
		c = n + (n+3*256)/4
	}
	c = max(c, 1)
	buf := make([]float64, 3*c)
	p.Times = append(buf[:0:c], p.Times...)
	p.Values = append(buf[c:c:2*c], p.Values...)
	p.Prefix = append(buf[2*c:2*c:3*c], p.Prefix...)
}

// reindex recomputes the prefixes from point i on and the directory from
// the chunk holding point i on, after an insert or overwrite at i. Points
// before i keep their prefixes: each depends only on the points before it.
func (tl *Timeline) reindex(i int) {
	p := &tl.pts
	n := len(p.Times)
	for j := max(i, 1); j < n; j++ {
		p.Prefix[j] = IntegralAt(p.Prefix[j-1], p.Values[j-1], p.Times[j-1], p.Times[j])
	}
	k := min(i/chunkPoints, len(tl.dir))
	tl.dir, tl.open = tl.dir[:k], k*chunkPoints
	for tl.open+chunkPoints < n {
		tl.closeChunk()
	}
}

// closeChunk closes the full open chunk, which a later point follows.
func (tl *Timeline) closeChunk() {
	p := &tl.pts
	lo, hi := tl.open, tl.open+chunkPoints
	tl.dir = append(tl.dir, Chunk{p.Times[lo:hi], p.Values[lo:hi], p.Prefix[lo:hi]}.Meta())
	tl.open = hi
}

// Add records that from time t on the value is the value just before t
// plus dv. It is the natural way to trace resource usage counters
// (flow starts: +rate, flow ends: -rate).
func (tl *Timeline) Add(t, dv float64) {
	tl.Set(t, tl.At(t)+dv)
}

// At returns the value of the timeline at time t.
func (tl *Timeline) At(t float64) float64 { return (*Column)(tl).At(t) }

// Integrate returns ∫_a^b tl(t) dt computed exactly (the timeline is a
// step function). An empty or degenerate window (b <= a) has measure 0.
// It costs two point lookups, independent of how many points the window
// spans.
func (tl *Timeline) Integrate(a, b float64) float64 {
	return (*Column)(tl).Integrate(a, b)
}

// Mean returns the time average of the timeline over [a, b]; it is the
// per-resource temporal aggregation of Equation 1 for a slice of width
// Δ = b − a. An inverted window (b < a) is empty and yields 0; the
// degenerate window [a, a] yields the instantaneous value At(a), the
// limit of the mean as the width goes to 0.
func (tl *Timeline) Mean(a, b float64) float64 {
	return (*Column)(tl).Mean(a, b)
}

// Max returns the maximum value the timeline takes anywhere in [a, b],
// including the implicit 0 before the first point when the window starts
// there. An inverted window (b < a) is empty and yields 0; [a, a] yields
// At(a). Closed chunks inside the window answer from the directory; the
// boundary chunks are scanned.
func (tl *Timeline) Max(a, b float64) float64 {
	return (*Column)(tl).Max(a, b)
}

// Min returns the minimum value the timeline takes anywhere in [a, b],
// with the same window semantics as Max.
func (tl *Timeline) Min(a, b float64) float64 {
	return (*Column)(tl).Min(a, b)
}

// Len returns the number of stored points.
func (tl *Timeline) Len() int { return len(tl.pts.Times) }

// PointAt returns the i-th stored point without copying the arrays. i
// must be in [0, Len()).
func (tl *Timeline) PointAt(i int) Point { return Point{tl.pts.Times[i], tl.pts.Values[i]} }

// Points returns a copy of the stored points in time order.
func (tl *Timeline) Points() []Point {
	out := make([]Point, len(tl.pts.Times))
	for i, t := range tl.pts.Times {
		out[i] = Point{t, tl.pts.Values[i]}
	}
	return out
}

// FirstTime returns the time of the first point, or 0 for an empty
// timeline.
func (tl *Timeline) FirstTime() float64 {
	if len(tl.pts.Times) == 0 {
		return 0
	}
	return tl.pts.Times[0]
}

// LastTime returns the time of the last point, or 0 for an empty timeline.
func (tl *Timeline) LastTime() float64 {
	if len(tl.pts.Times) == 0 {
		return 0
	}
	return tl.pts.Times[len(tl.pts.Times)-1]
}

// Clone returns an independent copy of the timeline.
func (tl *Timeline) Clone() *Timeline {
	p := &tl.pts
	return &Timeline{
		pts:  Chunk{slices.Clone(p.Times), slices.Clone(p.Values), slices.Clone(p.Prefix)},
		open: tl.open,
		dir:  slices.Clone(tl.dir),
	}
}

// String renders the timeline compactly, mainly for tests and debugging.
func (tl *Timeline) String() string {
	s := "["
	for i, t := range tl.pts.Times {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%g:%g", t, tl.pts.Values[i])
	}
	return s + "]"
}

// validNumber reports whether v is a usable metric value (finite).
func validNumber(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
