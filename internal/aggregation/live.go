package aggregation

import "viva/internal/trace"

// LiveWindow reports the temporal half of Equation 1, per-series
// integral and time mean, over the advancing tail window of a *growing*
// trace. Each Advance is TimeAggregate over [hi−width, hi] for every
// (resource, metric) timeline: each append of live ingestion extends its
// timeline's prefixes and chunk directory, so a window costs two point
// lookups per series whatever the trace's length, and its result is
// the cold TimeAggregate's by construction. Out-of-order data and a
// window that moves backwards need no special case.
//
// LiveWindow is not safe for concurrent use; the stream publisher owns it
// together with the live trace, under the same lock.
type LiveWindow struct {
	tr     *trace.Trace
	width  float64
	series []liveSeries
}

type liveSeries struct {
	resource, metric string
	tl               *trace.Timeline
}

// NewLiveWindow tracks tail windows of the given width (trace seconds)
// over tr. Width must be positive.
func NewLiveWindow(tr *trace.Trace, width float64) *LiveWindow {
	return &LiveWindow{tr: tr, width: width}
}

// Width returns the configured window width.
func (lw *LiveWindow) Width() float64 { return lw.width }

// Advance moves the window tail to hi and reports, for every (resource,
// metric) timeline the trace carries, in discovery order, the Eq. 1
// integral and time mean over [hi-width, hi]. Timelines that appeared
// since the last call are discovered first.
func (lw *LiveWindow) Advance(hi float64, fn func(resource, metric string, integral, mean float64)) {
	for n := lw.tr.NumVariables(); len(lw.series) < n; {
		res, met := lw.tr.VariableAt(len(lw.series))
		lw.series = append(lw.series, liveSeries{res, met, lw.tr.Timeline(res, met)})
	}
	slice := TimeSlice{Start: hi - lw.width, End: hi}
	for _, s := range lw.series {
		integral, mean := TimeAggregate(s.tl, slice)
		fn(s.resource, s.metric, integral, mean)
	}
}
