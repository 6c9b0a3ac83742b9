// The process clock and the live half of the meta-trace. NowNs stamps
// every span, frame and snapshot on one monotonic clock. The SpanFeed is
// a fan-out Subscriber: a bounded non-blocking queue of finished spans
// that a stream.Source can drain and re-emit as live trace operations,
// so the pipeline's own execution is watchable through the same
// /api/stream machinery it serves traces with.

package obs

import (
	"sync/atomic"
	"time"
)

// epoch anchors every pipeline timestamp; NowNs is monotonic since
// process start (well, since package init — the distinction never shows).
var epoch = time.Now()

// NowNs returns monotonic nanoseconds since the obs epoch. One clock
// read, no allocation: cheap enough to stamp every span boundary.
func NowNs() int64 { return int64(time.Since(epoch)) }

// SpanEvent is one finished span as the feed delivers it.
type SpanEvent struct {
	Stage StageID
	AtNs  int64 // end stamp, NowNs clock
	DurNs int64
}

// SpanFeed is a bounded, non-blocking span queue: Record drops when the
// consumer lags, so instrumentation can never stall the pipeline it
// observes. Dropped spans are counted.
type SpanFeed struct {
	ch      chan SpanEvent
	dropped atomic.Uint64
}

// NewSpanFeed creates a feed buffering up to n spans (n < 1 means 1024).
func NewSpanFeed(n int) *SpanFeed {
	if n < 1 {
		n = 1024
	}
	return &SpanFeed{ch: make(chan SpanEvent, n)}
}

// Record enqueues a finished span, dropping it if the feed is full.
func (f *SpanFeed) Record(stage StageID, atNs, durNs int64) {
	select {
	case f.ch <- SpanEvent{Stage: stage, AtNs: atNs, DurNs: durNs}:
	default:
		f.dropped.Add(1)
	}
}

// Events returns the consumer side of the feed.
func (f *SpanFeed) Events() <-chan SpanEvent { return f.ch }

// Dropped returns how many spans were discarded against a full feed.
func (f *SpanFeed) Dropped() uint64 { return f.dropped.Load() }
