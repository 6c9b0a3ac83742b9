package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"viva/internal/obs"
)

// obsIndexBuilds counts lazy aggregation-index (re)builds: a high rate
// against a low mutation rate means readers race to rebuild, a high rate
// overall means timelines churn under the interactive loop.
var obsIndexBuilds = obs.Default.Counter("viva_trace_index_builds_total",
	"Lazy timeline aggregation-index builds (prefix sums + chunk directory).")

// Point is one sample of a piecewise-constant timeline: the value V holds
// from time T (inclusive) until the time of the next point (exclusive).
type Point struct {
	T float64
	V float64
}

// Timeline is a piecewise-constant function of time. Before the first
// point the value is 0. Points are kept sorted by time; setting a value at
// the time of an existing point overwrites it.
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
// A timeline is safe for concurrent reads (the aggregation index is
// published atomically) but, like the Trace that owns it, not for
// mutation concurrent with anything else.
type Timeline struct {
	// times and values are the points as parallel arrays, so a chunk of
	// the index is a sub-slice, never a copy.
	times, values []float64
	// idx is the lazily built aggregation index; nil until the first
	// windowed query and after an out-of-order insert.
	idx atomic.Pointer[timelineIndex]
}

// timelineIndex is a timeline's Eq. 1 index: the directory of the
// chunks its ColumnBuilder closed, plus the absolute prefix of every
// point. Closed chunk k is points [k·size, (k+1)·size); the points after
// the directory are the column's open tail.
//
// The index is built lazily by the first windowed query. Monotone
// mutations, appending past the last point or overwriting it, the shape
// of every Add on advancing time, extend it in place through the same
// builder, so a live trace keeps serving indexed queries while it grows.
// An out-of-order insert drops it. Concurrent readers of an unmutated
// timeline may race to build it; every build is identical, so whichever
// store wins is correct. The in-place extension relies on mutation being
// single-writer and never concurrent with reads, like the rest of Trace.
//
// Queries read col alone. It sits in a small object of its own so the
// indexes of many short timelines pack densely in cache; what appends
// and closed-chunk loads need lives behind ext.
type timelineIndex struct {
	col Column
	ext *indexExt
}

// indexExt is the rest of a timeline's index.
type indexExt struct {
	tl     *Timeline
	prefix []float64
	dir    []ChunkMeta
	b      ColumnBuilder
}

// add extends the index with the point just appended and refreshes col.
func (ix *timelineIndex) add(t, v float64) {
	e := ix.ext
	pref, closed := e.b.Add(t, v)
	if closed != nil {
		e.dir = append(e.dir, *closed)
	}
	e.prefix = append(e.prefix, pref)
	tl := e.tl
	n := e.b.Len()
	open := n - e.b.openCount()
	ix.col = Column{
		dir:  e.dir,
		tail: Chunk{tl.times[open:n], tl.values[open:n], e.prefix[open:n]},
		load: e,
	}
}

// LoadChunk serves closed chunk k as sub-slices of the timeline.
func (e *indexExt) LoadChunk(k int) (Chunk, bool) {
	lo, hi := k*e.b.size, (k+1)*e.b.size
	tl := e.tl
	return Chunk{tl.times[lo:hi:hi], tl.values[lo:hi:hi], e.prefix[lo:hi:hi]}, true
}

// buildIndex runs the builder over every point with chunks of size
// points (DefaultChunkPoints when size <= 0) and publishes the result.
func (tl *Timeline) buildIndex(size int) *timelineIndex {
	ix := &timelineIndex{ext: &indexExt{tl: tl, prefix: make([]float64, 0, cap(tl.times)), b: NewColumnBuilder(size)}}
	for i, t := range tl.times {
		ix.add(t, tl.values[i])
	}
	obsIndexBuilds.Inc()
	tl.idx.Store(ix)
	return ix
}

// column returns the kernel's view of the timeline, building the index
// if nothing built it yet.
func (tl *Timeline) column() *Column {
	ix := tl.idx.Load()
	if ix == nil {
		ix = tl.buildIndex(0)
	}
	return &ix.col
}

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
// accepted (they insert in the middle), but the common fast path is
// monotonically non-decreasing time. Monotone mutations — appending past
// the last point or overwriting it — extend a live aggregation index in
// place; an out-of-order insert drops it and the next windowed query
// rebuilds.
func (tl *Timeline) Set(t, v float64) {
	n := len(tl.times)
	switch {
	case n == 0 || t > tl.times[n-1]:
		tl.push(t, v)
		if ix := tl.idx.Load(); ix != nil {
			ix.add(t, v)
		}
	case t == tl.times[n-1]:
		tl.values[n-1] = v
		if ix := tl.idx.Load(); ix != nil {
			ix.ext.b.OverwriteLast(v)
		}
	default:
		tl.idx.Store(nil)
		i := sort.SearchFloat64s(tl.times, t)
		if tl.times[i] == t {
			tl.values[i] = v
			return
		}
		tl.times = slices.Insert(tl.times, i, t)
		tl.values = slices.Insert(tl.values, i, v)
	}
}

// push appends a point. The arrays grow together in one allocation at
// the rate append grows a slice of 16-byte points, so a timeline costs
// what a []Point would: times in its first third, values in its second,
// and, once the index exists, the index's prefix in the last.
func (tl *Timeline) push(t, v float64) {
	if n := len(tl.times); n == cap(tl.times) {
		c := 2 * n
		if n >= 256 {
			c = n + (n+3*256)/4
		}
		c = max(c, 1)
		ix := tl.idx.Load()
		parts := 2
		if ix != nil {
			parts = 3
		}
		buf := make([]float64, parts*c)
		tl.times = append(buf[:0:c], tl.times...)
		tl.values = append(buf[c:c:2*c], tl.values...)
		if ix != nil {
			ix.ext.prefix = append(buf[2*c:2*c], ix.ext.prefix...)
		}
	}
	tl.times = append(tl.times, t)
	tl.values = append(tl.values, v)
}

// Add records that from time t on the value is the value just before t
// plus dv. It is the natural way to trace resource usage counters
// (flow starts: +rate, flow ends: -rate).
func (tl *Timeline) Add(t, dv float64) {
	tl.Set(t, tl.At(t)+dv)
}

// At returns the value of the timeline at time t. It needs no index: the
// kernel answers it from the points alone, viewed as one open chunk.
func (tl *Timeline) At(t float64) float64 {
	c := Column{tail: Chunk{Times: tl.times, Values: tl.values}}
	return c.At(t)
}

// Integrate returns ∫_a^b tl(t) dt computed exactly (the timeline is a
// step function). An empty or degenerate window (b <= a) has measure 0.
// It costs two point lookups in the index, independent of how many points
// the window spans.
func (tl *Timeline) Integrate(a, b float64) float64 {
	return tl.column().Integrate(a, b)
}

// Mean returns the time average of the timeline over [a, b]; it is the
// per-resource temporal aggregation of Equation 1 for a slice of width
// Δ = b − a. An inverted window (b < a) is empty and yields 0; the
// degenerate window [a, a] yields the instantaneous value At(a), the
// limit of the mean as the width goes to 0.
func (tl *Timeline) Mean(a, b float64) float64 {
	return tl.column().Mean(a, b)
}

// Max returns the maximum value the timeline takes anywhere in [a, b],
// including the implicit 0 before the first point when the window starts
// there. An inverted window (b < a) is empty and yields 0; [a, a] yields
// At(a). Closed chunks inside the window answer from the index directory;
// the boundary chunks are scanned.
func (tl *Timeline) Max(a, b float64) float64 {
	return tl.column().Max(a, b)
}

// Min returns the minimum value the timeline takes anywhere in [a, b],
// with the same window semantics as Max.
func (tl *Timeline) Min(a, b float64) float64 {
	return tl.column().Min(a, b)
}

// Len returns the number of stored points.
func (tl *Timeline) Len() int { return len(tl.times) }

// PointAt returns the i-th stored point without copying the arrays. i
// must be in [0, Len()).
func (tl *Timeline) PointAt(i int) Point { return Point{tl.times[i], tl.values[i]} }

// Points returns a copy of the stored points in time order.
func (tl *Timeline) Points() []Point {
	out := make([]Point, len(tl.times))
	for i, t := range tl.times {
		out[i] = Point{t, tl.values[i]}
	}
	return out
}

// FirstTime returns the time of the first point, or 0 for an empty
// timeline.
func (tl *Timeline) FirstTime() float64 {
	if len(tl.times) == 0 {
		return 0
	}
	return tl.times[0]
}

// LastTime returns the time of the last point, or 0 for an empty timeline.
func (tl *Timeline) LastTime() float64 {
	if len(tl.times) == 0 {
		return 0
	}
	return tl.times[len(tl.times)-1]
}

// Clone returns an independent copy of the timeline.
func (tl *Timeline) Clone() *Timeline {
	return &Timeline{times: slices.Clone(tl.times), values: slices.Clone(tl.values)}
}

// String renders the timeline compactly, mainly for tests and debugging.
func (tl *Timeline) String() string {
	s := "["
	for i, t := range tl.times {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%g:%g", t, tl.values[i])
	}
	return s + "]"
}

// validNumber reports whether v is a usable metric value (finite).
func validNumber(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
