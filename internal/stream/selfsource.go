package stream

import (
	"context"

	"viva/internal/obs"
)

// SelfSource adapts the obs span feed into a live trace source: every
// stage span the pipeline emits becomes a trace operation on a synthetic
// platform (root "viva", one resource per stage), so the pipeline's own
// execution streams through the same hub/SSE machinery it serves real
// traces with — the paper's visualization loop closed over the system's
// hot path. Attach the feed to the span fan-out with obs.Frames.Attach
// and serve the resulting stream on /api/stream/self; whole interactive
// frames arrive as the "frame" stage. The stream built over it, and the
// server's writes of that stream, report no hops of their own, so the
// meta-trace never feeds on itself.
type SelfSource struct {
	feed *obs.SpanFeed
}

// NewSelfSource wraps a span feed as a Source.
func NewSelfSource(feed *obs.SpanFeed) *SelfSource { return &SelfSource{feed: feed} }

// selfRoot is the meta-trace's platform root; each stage becomes a child
// resource of type selfStageType carrying selfMetric.
const (
	selfRoot      = "viva"
	selfRootType  = "pipeline"
	selfStageType = "stage"
	selfMetric    = "span_ms"
)

// Run drains the feed until ctx is cancelled, declaring each stage
// resource on first sight and recording every span's duration (in
// milliseconds) as a set on that resource at the span's end time.
// Timestamps are clamped monotone: spans from concurrent producers may
// interleave slightly out of order in the feed, and the live trace's
// append fast path wants time moving forward.
func (s *SelfSource) Run(ctx context.Context, emit func(Op) error) error {
	if err := emit(Op{Kind: OpDeclare, Resource: selfRoot, Metric: selfRootType}); err != nil {
		return err
	}
	declared := make(map[obs.StageID]bool)
	lastT := 0.0
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case ev := <-s.feed.Events():
			t := float64(ev.AtNs) / 1e9
			if t < lastT {
				t = lastT
			}
			lastT = t
			name := obs.StageName(ev.Stage)
			if name == "" {
				continue
			}
			if !declared[ev.Stage] {
				declared[ev.Stage] = true
				if err := emit(Op{Kind: OpDeclare, Resource: name, Metric: selfStageType, Aux: selfRoot}); err != nil {
					return err
				}
			}
			if err := emit(Op{Kind: OpSet, T: t, Resource: name, Metric: selfMetric,
				Value: float64(ev.DurNs) / 1e6}); err != nil {
				return err
			}
			if err := emit(Op{Kind: OpEnd, T: t}); err != nil {
				return err
			}
		}
	}
}
