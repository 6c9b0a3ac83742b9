package trace

import (
	"math"
	"sort"
)

// DefaultChunkPoints is the number of points per closed chunk of a
// column: what a heap timeline's index uses, and the .vvc writer's
// default. 24 KiB raw, small enough that a boundary-chunk scan or
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
// in memory: a directory of closed chunks, loaded on demand, followed by
// an open tail chunk that is always resident. A heap timeline's column
// serves its chunks as sub-slices of its own arrays; a store column has
// no tail and pages its chunks through the store's cache.
//
// A query locates its chunk by binary search over the directory. A time
// at or past a closed chunk's last point, and a closed chunk entirely
// inside a window, answer from the directory; only the (at most two)
// boundary chunks of a window are fetched. The window semantics are the
// Timeline's (see Series). Queries only read a Column, so it is safe for
// concurrent reads as long as its loader is.
type Column struct {
	// tail leads: a heap query's first reads (its times, values and
	// prefix slices) then share one cache line.
	tail Chunk
	dir  []ChunkMeta
	load ChunkLoader
}

var _ Series = (*Column)(nil)

// NewColumn returns the column over the closed chunks dir, which load
// fetches on demand.
func NewColumn(dir []ChunkMeta, load ChunkLoader) Column {
	return Column{dir: dir, load: load}
}

// Len returns the number of points.
func (c *Column) Len() int {
	n := len(c.tail.Times)
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
	if len(c.tail.Times) > 0 {
		return c.tail.Times[0]
	}
	return 0
}

// LastTime returns the time of the last point (0 when empty).
func (c *Column) LastTime() float64 {
	if n := len(c.tail.Times); n > 0 {
		return c.tail.Times[n-1]
	}
	if n := len(c.dir); n > 0 {
		return c.dir[n-1].LastT
	}
	return 0
}

// locateClosed returns the last closed chunk whose first point is at or
// before t (for a t before the tail, the chunk holding the point in
// effect at t), or -1 when none is.
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
	ch := &c.tail
	if len(ch.Times) == 0 || t < ch.Times[0] {
		return c.closedPoint(t)
	}
	i := upTo(ch.Times, t) - 1
	return ch.Times[i], ch.Values[i], ch.Prefix[i]
}

// closedPoint is point for a t before the tail: from the directory when
// t is at or past its chunk's last point, else from the loaded chunk.
func (c *Column) closedPoint(t float64) (pt, pv, pp float64) {
	k := c.locateClosed(t)
	if k < 0 {
		return 0, 0, 0
	}
	m := &c.dir[k]
	if t >= m.LastT {
		return m.LastT, m.LastV, m.PrefLast
	}
	ch, ok := c.load.LoadChunk(k)
	i := upTo(ch.Times, t) - 1
	if !ok || i < 0 {
		return 0, 0, 0
	}
	return ch.Times[i], ch.Values[i], ch.Prefix[i]
}

// integralAt is the cumulative integral at time t of a step function
// whose last point at or before t is (pt, pv) with absolute prefix pp.
// It is both the builder's prefix recurrence (t the next point's time)
// and the kernel's boundary evaluation, so the two cannot drift apart:
// heap, store and live answers are bit-identical because every one of
// them comes from here.
func integralAt(pp, pv, pt, t float64) float64 { return pp + pv*(t-pt) }

// At returns the value of the step function at time t (0 before the
// first point). Its tail path reads no prefix, so a column viewed for At
// alone may leave the tail's Prefix nil.
func (c *Column) At(t float64) float64 {
	ch := &c.tail
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
	// Before the first point, point's zeros make integralAt exactly 0.
	bt, bv, bp := c.point(b)
	at, av, ap := c.point(a)
	return integralAt(bp, bv, bt, b) - integralAt(ap, av, at, a)
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
// their directory entry, the boundary chunks and the tail by scan.
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
	scan := func(ch Chunk) {
		for i := upTo(ch.Times, a); i < len(ch.Times) && ch.Times[i] <= b; i++ {
			take(ch.Values[i], ch.Values[i])
		}
	}
	for k := max(c.locateClosed(a), 0); k < len(c.dir) && c.dir[k].FirstT <= b; k++ {
		switch m := &c.dir[k]; {
		case m.LastT <= a:
		case m.FirstT > a && m.LastT <= b:
			take(m.Min, m.Max)
		default:
			if ch, ok := c.load.LoadChunk(k); ok {
				scan(ch)
			}
		}
	}
	scan(c.tail)
	return lo, hi
}

// ColumnBuilder grows a column one point at a time. It holds the one
// copy of the prefix recurrence, and closes the open chunk when a
// strictly later point arrives on a full one, so an equal-time overwrite
// of the last point never touches a closed chunk. The caller keeps the
// points, their prefixes and the directory of closed chunks.
type ColumnBuilder struct {
	size int
	n    int
	// open is the open chunk's entry in the making: Min and Max cover
	// every point but the last, whose value an overwrite may still
	// change; LastT, LastV and PrefLast are the column's last point.
	open ChunkMeta
	// done is the entry of the chunk closed last.
	done ChunkMeta
}

// NewColumnBuilder returns a builder closing chunks of size points
// (DefaultChunkPoints when size <= 0).
func NewColumnBuilder(size int) ColumnBuilder {
	if size <= 0 {
		size = DefaultChunkPoints
	}
	return ColumnBuilder{size: size}
}

// Len returns the number of points added.
func (b *ColumnBuilder) Len() int { return b.n }

// Last returns the last point added (zeros when none).
func (b *ColumnBuilder) Last() (t, v float64) { return b.open.LastT, b.open.LastV }

// Add appends the point (t, v), t strictly after the last point, and
// returns its absolute prefix. When the open chunk was full it is closed
// before the point is added, and closed is its directory entry, valid
// until the next call; otherwise closed is nil.
func (b *ColumnBuilder) Add(t, v float64) (pref float64, closed *ChunkMeta) {
	o := &b.open
	if o.Count == b.size {
		closed = b.Finish()
	}
	if b.n > 0 {
		pref = integralAt(o.PrefLast, o.LastV, o.LastT, t)
	}
	if o.Count == 0 {
		o.FirstT, o.PrefFirst = t, pref
		o.Min, o.Max = math.Inf(1), math.Inf(-1)
	} else {
		o.fold(o.LastV)
	}
	o.Count++
	b.n++
	o.LastT, o.LastV, o.PrefLast = t, v, pref
	return pref, closed
}

// OverwriteLast replaces the value of the last point (an equal-time
// Set). Its prefix integrates only up to its time, which did not move.
func (b *ColumnBuilder) OverwriteLast(v float64) { b.open.LastV = v }

// Finish closes the open chunk and returns its directory entry, valid
// until the next call, or nil when the open chunk is empty: the end of
// a column that is written out.
func (b *ColumnBuilder) Finish() *ChunkMeta {
	if b.open.Count == 0 {
		return nil
	}
	b.done = b.open
	b.done.fold(b.done.LastV)
	b.open.Count = 0
	return &b.done
}

// openCount returns the number of points in the open chunk.
func (b *ColumnBuilder) openCount() int { return b.open.Count }

func (m *ChunkMeta) fold(v float64) {
	if v < m.Min {
		m.Min = v
	}
	if v > m.Max {
		m.Max = v
	}
}
