package trace

// Series is the read side of one (resource, metric) timeline: everything
// the aggregation engine (Equation 1) and the visualization ask of a
// piecewise-constant metric function, and nothing about how it is stored.
// Both implementations answer through the one chunked kernel, *Column:
// the in-heap *Timeline serves it its own points, and the out-of-core
// store hands out Columns over an on-disk file's chunk directory, paged
// through a bounded chunk cache.
//
// Every implementation shares the Timeline's window semantics: an
// inverted window (b < a) is empty and yields 0; the degenerate window
// [a, a] yields Integrate 0 (zero measure) and Mean/Max/Min At(a).
// Implementations must be safe for concurrent reads (the parallel
// vizgraph build queries series from several goroutines).
type Series interface {
	// At returns the value of the step function at time t (0 before the
	// first point).
	At(t float64) float64
	// Integrate returns the exact integral over [a, b] (0 when b <= a).
	Integrate(a, b float64) float64
	// Mean returns the time average over [a, b].
	Mean(a, b float64) float64
	// Max returns the maximum value taken anywhere in [a, b].
	Max(a, b float64) float64
	// Min returns the minimum value taken anywhere in [a, b].
	Min(a, b float64) float64
	// FirstTime returns the time of the first point (0 when empty).
	FirstTime() float64
	// LastTime returns the time of the last point (0 when empty).
	LastTime() float64
	// Len returns the number of stored points.
	Len() int
}

// *Timeline is the canonical in-heap Series.
var _ Series = (*Timeline)(nil)

// Series returns the (resource, metric) timeline as a read-only Series —
// the accessor aggregation uses, so a Trace and an on-disk store are
// interchangeable behind it. Missing pairs yield an identically-zero
// series.
func (tr *Trace) Series(resource, metric string) Series {
	return tr.Timeline(resource, metric)
}
