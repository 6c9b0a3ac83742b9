package trace

import "sort"

// DefaultChunkPoints is the number of points per closed chunk of a
// column: what a heap timeline closes its chunks at, and the .vvc
// writer's default. 24 KiB raw, small enough that a boundary-chunk scan or
// decompression stays cheap, large enough that the directory stays tiny
// next to the data.
const DefaultChunkPoints = 1024

// ChunkMeta is the directory entry of one closed chunk: enough to answer
// a query time at or past the chunk's last point, and a window that
// covers the chunk whole, without touching its points.
type ChunkMeta struct {
	Count     int
	FirstT    float64 // time of the first point
	LastT     float64 // time of the last point
	LastV     float64 // value of the last point
	PrefFirst float64 // prefix of the first point
	PrefLast  float64 // prefix of the last point
	Min, Max  float64 // extrema of the values
}

// Chunk is the points of one chunk as parallel arrays. Prefix[i] is the
// ABSOLUTE cumulative integral of the column's step function from its
// first point up to Times[i].
type Chunk struct {
	Times, Values, Prefix []float64
}

// ChunkLoader fetches closed chunk k of a column. A failed load returns
// ok false, and the query that needed the chunk degrades to the implicit
// 0 (the Series interface has no error channel).
type ChunkLoader interface {
	LoadChunk(k int) (c Chunk, ok bool)
}

// Column is the one Eq. 1 query kernel, over the .vvc chunk layout held
// in memory: a directory of closed chunks followed by an open tail chunk
// that is always resident. A heap timeline is a column that keeps every
// point resident, its closed chunks' points ahead of the open tail; a
// store column has no resident points and pages its closed chunks
// through the store's cache.
//
// A query locates its chunk by binary search over the directory, or over
// the resident points when they cover the time. A time at or past a
// closed chunk's last point, and a closed chunk entirely inside a
// window, answer from the directory; only the (at most two) boundary
// chunks of a window are fetched. The window semantics are the
// Timeline's (see Series). Queries only read a Column, so it is safe for
// concurrent reads as long as its loader is.
type Column struct {
	// pts leads: a heap query's first reads (its times, values and
	// prefix slices) then share one cache line. pts[open:] is the open
	// tail. The points before open are the closed chunks', kept only by
	// a column without a loader; with one, open is 0.
	pts  Chunk
	open int
	dir  []ChunkMeta
	load ChunkLoader
}

var _ Series = (*Column)(nil)

// NewColumn returns the column over the closed chunks dir, which load
// fetches on demand.
func NewColumn(dir []ChunkMeta, load ChunkLoader) Column {
	return Column{dir: dir, load: load}
}

// chunk returns closed chunk k: through the loader, or as sub-slices of
// the resident points, where every closed chunk holds dir[0].Count.
func (c *Column) chunk(k int) (Chunk, bool) {
	if c.load != nil {
		return c.load.LoadChunk(k)
	}
	size := c.dir[0].Count
	lo, hi := k*size, (k+1)*size
	return Chunk{c.pts.Times[lo:hi:hi], c.pts.Values[lo:hi:hi], c.pts.Prefix[lo:hi:hi]}, true
}

// Len returns the number of points.
func (c *Column) Len() int {
	n := len(c.pts.Times) - c.open
	for i := range c.dir {
		n += c.dir[i].Count
	}
	return n
}

// FirstTime returns the time of the first point (0 when empty).
func (c *Column) FirstTime() float64 {
	if len(c.dir) > 0 {
		return c.dir[0].FirstT
	}
	if len(c.pts.Times) > 0 {
		return c.pts.Times[0]
	}
	return 0
}

// LastTime returns the time of the last point (0 when empty).
func (c *Column) LastTime() float64 {
	if n := len(c.pts.Times); n > 0 {
		return c.pts.Times[n-1]
	}
	if n := len(c.dir); n > 0 {
		return c.dir[n-1].LastT
	}
	return 0
}

// locateClosed returns the last closed chunk whose first point is at or
// before t (for a t before the resident points, the chunk holding the
// point in effect at t), or -1 when none is.
func (c *Column) locateClosed(t float64) int {
	return sort.Search(len(c.dir), func(i int) bool { return c.dir[i].FirstT > t }) - 1
}

// upTo returns how many of the ascending times are at or before t. A
// time at or past the last one, the shape of every Add on advancing
// time, costs one comparison.
func upTo(times []float64, t float64) int {
	n := len(times)
	if n > 0 && t >= times[n-1] {
		return n
	}
	lo, hi := 0, n
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if times[h] <= t {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo
}

// point returns the point in effect at t, the last one with T <= t: its
// time, value and prefix. Before the first point, and when a chunk fails
// to load, it returns zeros, which every caller reads as the implicit 0.
func (c *Column) point(t float64) (pt, pv, pp float64) {
	ch := &c.pts
	if len(ch.Times) == 0 || t < ch.Times[0] {
		return c.closedPoint(t)
	}
	i := upTo(ch.Times, t) - 1
	return ch.Times[i], ch.Values[i], ch.Prefix[i]
}

// closedPoint is point for a t before the resident points: from the
// directory when t is at or past its chunk's last point, else from the
// loaded chunk.
func (c *Column) closedPoint(t float64) (pt, pv, pp float64) {
	k := c.locateClosed(t)
	if k < 0 {
		return 0, 0, 0
	}
	m := &c.dir[k]
	if t >= m.LastT {
		return m.LastT, m.LastV, m.PrefLast
	}
	ch, ok := c.chunk(k)
	i := upTo(ch.Times, t) - 1
	if !ok || i < 0 {
		return 0, 0, 0
	}
	return ch.Times[i], ch.Values[i], ch.Prefix[i]
}

// IntegralAt is the cumulative integral at time t of a step function
// whose last point at or before t is (pt, pv) with absolute prefix pp.
// It is both the prefix recurrence a column is grown by (t the next
// point's time, on the heap and in the .vvc writer alike) and the
// kernel's boundary evaluation, so the two cannot drift apart: heap,
// store and live answers are bit-identical because every one of them
// comes from here.
func IntegralAt(pp, pv, pt, t float64) float64 { return pp + pv*(t-pt) }

// At returns the value of the step function at time t (0 before the
// first point).
func (c *Column) At(t float64) float64 {
	ch := &c.pts
	if len(ch.Times) == 0 || t < ch.Times[0] {
		_, v, _ := c.closedPoint(t)
		return v
	}
	return ch.Values[upTo(ch.Times, t)-1]
}

// Integrate returns ∫_a^b exactly (the column is a step function); an
// empty or degenerate window (b <= a) has measure 0. It costs two point
// lookups, independent of how many points the window spans.
func (c *Column) Integrate(a, b float64) float64 {
	if b <= a {
		return 0
	}
	// Before the first point, point's zeros make IntegralAt exactly 0.
	bt, bv, bp := c.point(b)
	at, av, ap := c.point(a)
	return IntegralAt(bp, bv, bt, b) - IntegralAt(ap, av, at, a)
}

// Mean returns the time average over [a, b]: the per-resource temporal
// aggregation of Equation 1 for a slice of width b − a. An inverted
// window yields 0; [a, a] yields At(a), the limit as the width goes to 0.
func (c *Column) Mean(a, b float64) float64 {
	if b < a {
		return 0
	}
	if b == a {
		return c.At(a)
	}
	return c.Integrate(a, b) / (b - a)
}

// Max returns the maximum value taken anywhere in [a, b], including the
// implicit 0 before the first point when the window starts there.
func (c *Column) Max(a, b float64) float64 {
	_, hi := c.extrema(a, b)
	return hi
}

// Min returns the minimum value taken anywhere in [a, b].
func (c *Column) Min(a, b float64) float64 {
	lo, _ := c.extrema(a, b)
	return lo
}

// extrema returns the smallest and largest of At(a) and the values of
// every point with a < T <= b: closed chunks inside the window from
// their directory entry, the boundary chunks and the open tail by scan.
func (c *Column) extrema(a, b float64) (lo, hi float64) {
	if b < a {
		return 0, 0
	}
	lo = c.At(a)
	hi = lo
	take := func(l, h float64) {
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	scan := func(ch Chunk, from int) {
		for i := max(upTo(ch.Times, a), from); i < len(ch.Times) && ch.Times[i] <= b; i++ {
			take(ch.Values[i], ch.Values[i])
		}
	}
	for k := max(c.locateClosed(a), 0); k < len(c.dir) && c.dir[k].FirstT <= b; k++ {
		switch m := &c.dir[k]; {
		case m.LastT <= a:
		case m.FirstT > a && m.LastT <= b:
			take(m.Min, m.Max)
		default:
			if ch, ok := c.chunk(k); ok {
				scan(ch, 0)
			}
		}
	}
	scan(c.pts, c.open)
	return lo, hi
}

// Meta returns the directory entry of c, a chunk just closed: the
// summary both the heap timeline and the .vvc writer record for it, so
// their directories agree bit for bit.
func (c Chunk) Meta() ChunkMeta {
	n := len(c.Times)
	m := ChunkMeta{
		Count: n, FirstT: c.Times[0], LastT: c.Times[n-1], LastV: c.Values[n-1],
		PrefFirst: c.Prefix[0], PrefLast: c.Prefix[n-1], Min: c.Values[0], Max: c.Values[0],
	}
	for _, v := range c.Values[1:] {
		if v < m.Min {
			m.Min = v
		}
		if v > m.Max {
			m.Max = v
		}
	}
	return m
}
