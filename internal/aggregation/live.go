package aggregation

import (
	"viva/internal/obs"
	"viva/internal/trace"
)

// Live-window observability: advances are the steady state, fallbacks
// mean history was rewritten under the window (out-of-order data) and a
// series paid a full O(n) recompute.
var (
	obsLiveAdvances = obs.Default.Counter("viva_agg_live_advances_total",
		"Incremental tail-window aggregation advances (per series).")
	obsLiveFallbacks = obs.Default.Counter("viva_agg_live_fallbacks_total",
		"Tail-window cursor resets forced by non-monotone timeline mutations.")
)

// LiveWindow maintains the temporal half of Equation 1 — per-series
// integral and time mean — over the advancing tail window of a *growing*
// trace. Where the Aggregator memoizes member lists and integrates each
// query through the timeline index (rebuilt after every append),
// LiveWindow assumes a single writer appending monotone points and keeps
// one cursor pair per timeline, so each Advance costs O(points appended
// since the last call), never an index rebuild.
//
// The arithmetic matters as much as the complexity: each cursor
// accumulates whole segments with exactly the left-to-right recurrence
// the timeline's prefix-sum index uses, and evaluates partial segments
// the way timelineIndex.integrateTo does, so an incremental window result
// is bit-identical to a cold TimeAggregate over the same slice — the
// property TestLiveWindowMatchesFullRecompute pins.
//
// When a timeline's history is rewritten (an out-of-order insert, an
// equal-time overwrite, a Compact — anything that bumps Timeline.Epoch),
// or the window moves backwards, the series falls back to a full cursor
// rebuild from t=0: correctness never depends on the monotone fast path.
//
// LiveWindow is not safe for concurrent use; the stream publisher owns it
// together with the live trace, under the same lock.
type LiveWindow struct {
	tr     *trace.Trace
	width  float64
	seen   int // variables discovered so far (trace only appends)
	series []liveSeries
	lastHi float64
}

type liveSeries struct {
	resource, metric string
	tl               *trace.Timeline
	epoch            uint64
	lo, hi           edgeCursor
}

// edgeCursor tracks one window edge over a growing timeline: idx points
// fully consumed, cum the exact prefix integral up to point idx-1. Both
// only ever move forward on the fast path.
type edgeCursor struct {
	idx int
	cum float64
}

// advance moves the edge to time t and returns ∫ from before the first
// point up to t, consuming newly covered whole segments into cum. The
// accumulation order and the partial-segment evaluation replicate the
// prefix-sum index bit for bit.
func (e *edgeCursor) advance(tl *trace.Timeline, t float64) float64 {
	n := tl.Len()
	for e.idx < n && tl.PointAt(e.idx).T <= t {
		if e.idx > 0 {
			prev := tl.PointAt(e.idx - 1)
			e.cum += prev.V * (tl.PointAt(e.idx).T - prev.T)
		}
		e.idx++
	}
	if e.idx == 0 {
		return 0
	}
	last := tl.PointAt(e.idx - 1)
	return e.cum + last.V*(t-last.T)
}

// NewLiveWindow tracks tail windows of the given width (trace seconds)
// over tr. Width must be positive.
func NewLiveWindow(tr *trace.Trace, width float64) *LiveWindow {
	return &LiveWindow{tr: tr, width: width}
}

// Width returns the configured window width.
func (lw *LiveWindow) Width() float64 { return lw.width }

// Advance moves the window tail to hi and reports, for every (resource,
// metric) timeline the trace carries, the Eq. 1 integral and time mean
// over [hi-width, hi] — identical to TimeAggregate over that slice.
// Newly appeared timelines are discovered automatically. Series whose
// history was rewritten since the last call are recomputed from scratch
// (counted in viva_agg_live_fallbacks_total).
func (lw *LiveWindow) Advance(hi float64, fn func(resource, metric string, integral, mean float64)) {
	// Discover timelines that appeared since the last tick.
	for n := lw.tr.NumVariables(); lw.seen < n; lw.seen++ {
		res, met := lw.tr.VariableAt(lw.seen)
		lw.series = append(lw.series, liveSeries{
			resource: res, metric: met,
			tl:    lw.tr.Timeline(res, met),
			epoch: lw.tr.Timeline(res, met).Epoch(),
		})
	}
	lo := hi - lw.width
	rewind := hi < lw.lastHi
	lw.lastHi = hi
	for i := range lw.series {
		s := &lw.series[i]
		if ep := s.tl.Epoch(); ep != s.epoch || rewind {
			// History rewritten (or the window moved backwards): full
			// invalidation, rebuild both cursors from t=0.
			s.epoch = ep
			s.lo = edgeCursor{}
			s.hi = edgeCursor{}
			obsLiveFallbacks.Inc()
		}
		obsLiveAdvances.Inc()
		var integral, mean float64
		// Same degenerate-window semantics as TimeAggregate: an empty or
		// inverted slice aggregates to nothing.
		if hi > lo && s.tl.Len() > 0 {
			integral = s.hi.advance(s.tl, hi) - s.lo.advance(s.tl, lo)
		}
		if hi > lo {
			mean = integral / (hi - lo)
		}
		fn(s.resource, s.metric, integral, mean)
	}
}
