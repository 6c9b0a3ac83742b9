// Package stream is the live-trace broadcast subsystem: a single
// publisher goroutine tails a live source (a replayed finished trace, a
// growing native-format file, or anything implementing Source), applies
// its events to a live *trace.Trace through the monotone-append fast
// path, runs incremental Eq. 1 tail-window aggregation over the new data
// only, and encodes exactly one immutable per-tick snapshot that every
// subscriber shares.
//
// Its headline property is graceful degradation under misbehaving load:
//
//   - the publisher never blocks on a client — fan-out pushes a snapshot
//     *reference* into each subscriber's bounded ring and moves on;
//   - a stalled client's ring coalesces to the newest snapshots
//     (drop-to-latest), and the count of what it skipped rides along so
//     the next frame can say so;
//   - sequence numbers plus a bounded resume window give reconnecting
//     clients Last-Event-ID semantics: an in-window resume replays only
//     the missed deltas, an out-of-window one falls back to the cached
//     full snapshot;
//   - admission control caps the subscriber count, and the publisher
//     widens its tick interval when publish latency says it is falling
//     behind (load shedding), narrowing again on recovery.
//
// The HTTP face (SSE framing, write deadlines, heartbeats, eviction)
// lives in internal/server; this package is transport-agnostic so the
// chaos harness can drive thousands of in-process subscribers under the
// race detector.
package stream

import (
	"errors"
	"sync"

	"viva/internal/obs"
	"viva/internal/trace"
)

// Self-observation of the broadcast layer.
var (
	obsSnapshots = obs.Default.Counter("viva_stream_snapshots_total",
		"Per-tick delta snapshots published to the hub.")
	obsFulls = obs.Default.Counter("viva_stream_full_snapshots_total",
		"Full snapshots regenerated for out-of-window (re)connects.")
	obsEvents = obs.Default.Counter("viva_stream_events_total",
		"Live trace operations applied by the stream publisher.")
	obsDropped = obs.Default.Counter("viva_stream_dropped_total",
		"Snapshots dropped to latest across all subscriber rings.")
	obsSubscribers = obs.Default.Gauge("viva_stream_subscribers",
		"Currently registered stream subscribers.")
	obsRejected = obs.Default.Counter("viva_stream_rejected_total",
		"Subscriptions refused by admission control (hub at capacity).")
	obsResumes = obs.Default.Counter("viva_stream_resumes_total",
		"Reconnects resumed from the delta window via Last-Event-ID.")
	obsResumeFalls = obs.Default.Counter("viva_stream_resume_fallbacks_total",
		"Reconnects outside the delta window served a full snapshot.")
	obsShed = obs.Default.Counter("viva_stream_shed_total",
		"Tick-interval widenings forced by publish-latency pressure.")
	obsPublish = obs.Default.Histogram("viva_stream_publish_seconds",
		"Publisher tick latency: apply + aggregate + encode + fan-out.", nil)
	obsTick = obs.Default.Gauge("viva_stream_tick_seconds",
		"Current publisher tick interval (grows under load shedding).")
	obsStaleness = obs.Default.Histogram("viva_stream_staleness_seconds",
		"Gap between consecutive published snapshots (client-visible data age).", nil)
)

// Service-level objectives over the live path, exported as
// viva_slo_* series and driving the flight recorder's anomaly dump.
var (
	// sloPush bounds one tick's publish latency.
	sloPush = obs.NewSLO(obs.Default, "stream_push", 0.25, 0.99)
	// sloStale bounds the gap between consecutive snapshots.
	sloStale = obs.NewSLO(obs.Default, "stream_staleness", 2.5, 0.99)
)

// Subscription errors the HTTP layer maps to status codes.
var (
	// ErrFull means admission control refused the subscription; clients
	// should retry later (503 + Retry-After upstream).
	ErrFull = errors.New("stream: subscriber limit reached")
	// ErrClosed means the hub has shut down.
	ErrClosed = errors.New("stream: hub closed")
)

// Op is one live trace operation, the unit a Source emits and the
// publisher applies: the native grammar's op (see trace.Op).
type Op = trace.Op

// The op kinds, under the names sources built on this package use.
const (
	OpSet     = trace.OpSet
	OpAdd     = trace.OpAdd
	OpState   = trace.OpState
	OpDeclare = trace.OpDeclare
	OpEdge    = trace.OpEdge
	OpEnd     = trace.OpEnd
)

// Snapshot is one immutable published frame: a sequence number, the tick
// it reflects, and the encoded JSON payload every subscriber shares.
// Full snapshots additionally carry the resource catalog so a fresh or
// long-gone client can bootstrap without replaying history.
type Snapshot struct {
	Seq  uint64
	Time float64
	Full bool
	Data []byte
	// PubNs is the obs.NowNs() stamp taken when the snapshot was
	// published — the trace-event time the per-subscriber delivery-lag
	// histogram measures client writes against.
	PubNs int64
}

// Hub fans published snapshots out to subscribers and answers
// Last-Event-ID resumes from a bounded delta window. All methods are safe
// for concurrent use; Publish and SetFull are the publisher's alone.
type Hub struct {
	mu     sync.Mutex
	subs   map[*Subscriber]struct{}
	closed bool
	seq    uint64 // last published delta sequence number

	// ring is the resume window: the last len(ring) delta snapshots.
	ring  []*Snapshot
	start int // ring index of the oldest entry
	n     int

	full *Snapshot // latest full snapshot, nil before the first tick

	maxSubs int
	subRing int
	nextID  int64 // subscriber ids, for flight-event correlation
}

// NewHub creates a hub admitting at most maxSubs subscribers, giving each
// a ring of subRing snapshot references, with a resume window of
// resumeWindow deltas. Zero values pick the defaults (8192, 16, 64).
func NewHub(maxSubs, subRing, resumeWindow int) *Hub {
	if maxSubs <= 0 {
		maxSubs = 8192
	}
	if subRing <= 0 {
		subRing = 16
	}
	if resumeWindow <= 0 {
		resumeWindow = 64
	}
	return &Hub{
		subs:    make(map[*Subscriber]struct{}),
		ring:    make([]*Snapshot, resumeWindow),
		maxSubs: maxSubs,
		subRing: subRing,
	}
}

// Seq returns the sequence number of the latest published delta.
func (h *Hub) Seq() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.seq
}

// NumSubscribers returns the current subscriber count.
func (h *Hub) NumSubscribers() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// Publish hands one delta snapshot to every subscriber ring and appends
// it to the resume window. It never blocks on a subscriber: a full ring
// coalesces to latest, counting what it dropped. Published snapshots are
// immutable from here on.
func (h *Hub) Publish(s *Snapshot) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq = s.Seq
	if h.n == len(h.ring) {
		h.ring[h.start] = s
		h.start = (h.start + 1) % len(h.ring)
	} else {
		h.ring[(h.start+h.n)%len(h.ring)] = s
		h.n++
	}
	for sub := range h.subs {
		sub.push(s)
	}
}

// SetFull installs the latest full snapshot, the out-of-window resume
// fallback.
func (h *Hub) SetFull(s *Snapshot) {
	h.mu.Lock()
	h.full = s
	h.mu.Unlock()
}

// Full returns the latest full snapshot (nil before the first tick).
func (h *Hub) Full() *Snapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.full
}

// oldestSeq returns the sequence number of the oldest delta still in the
// resume window (0 when empty).
func (h *Hub) oldestSeq() uint64 {
	if h.n == 0 {
		return 0
	}
	return h.ring[h.start].Seq
}

// Subscribe registers a client. lastSeq is the sequence number of the
// last snapshot the client saw (its Last-Event-ID), 0 for a fresh
// connection. The returned subscriber's ring is pre-seeded under the
// same lock that orders Publish, so no snapshot is missed or duplicated:
//
//   - in-window resume (every delta after lastSeq is still in the resume
//     window): only the missed deltas are queued;
//   - fresh connect or out-of-window resume: the cached full snapshot is
//     queued first, then the deltas published after it.
//
// Subscribe fails with ErrFull at the admission cap and ErrClosed after
// Close.
func (h *Hub) Subscribe(lastSeq uint64) (*Subscriber, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, ErrClosed
	}
	if len(h.subs) >= h.maxSubs {
		obsRejected.Inc()
		obs.Flight.Record(obs.FlightReject, h.seq, int64(len(h.subs)), 0)
		return nil, ErrFull
	}
	h.nextID++
	sub := &Subscriber{
		id:     h.nextID,
		ring:   make([]*Snapshot, h.subRing),
		notify: make(chan struct{}, 1),
	}
	resumed := lastSeq > 0 && lastSeq <= h.seq && (lastSeq+1 >= h.oldestSeq() || lastSeq == h.seq)
	from := lastSeq
	if resumed {
		obsResumes.Inc()
	} else {
		if lastSeq > 0 {
			obsResumeFalls.Inc()
			obs.Flight.Record(obs.FlightResumeFall, h.seq, int64(lastSeq), sub.id)
		}
		from = 0
		if h.full != nil {
			sub.push(h.full)
			from = h.full.Seq
		}
	}
	for i := 0; i < h.n; i++ {
		if s := h.ring[(h.start+i)%len(h.ring)]; s.Seq > from {
			sub.push(s)
		}
	}
	h.subs[sub] = struct{}{}
	obsSubscribers.Set(float64(len(h.subs)))
	return sub, nil
}

// Unsubscribe removes a client. It is idempotent and safe after Close.
func (h *Hub) Unsubscribe(sub *Subscriber) {
	h.mu.Lock()
	if _, ok := h.subs[sub]; ok {
		delete(h.subs, sub)
		obsSubscribers.Set(float64(len(h.subs)))
	}
	h.mu.Unlock()
}

// Close shuts the hub down: every subscriber is marked terminal and woken
// so its handler can emit a final shutdown frame and return. Subsequent
// Publish calls are no-ops and Subscribe fails with ErrClosed.
func (h *Hub) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	obs.Flight.Record(obs.FlightHubClose, h.seq, int64(len(h.subs)), 0)
	for sub := range h.subs {
		sub.close()
	}
}

// Subscriber is one client's bounded view of the snapshot stream: a ring
// of shared snapshot references with drop-to-latest overflow. The
// serving goroutine waits on Notify and drains with Take; the publisher
// pushes. Neither ever blocks the other beyond the ring mutex.
type Subscriber struct {
	id      int64
	mu      sync.Mutex
	ring    []*Snapshot
	start   int
	n       int
	dropped uint64
	closed  bool

	notify chan struct{}
}

// ID returns the subscriber's hub-assigned id, the correlation key
// flight events carry in their b detail.
func (s *Subscriber) ID() int64 { return s.id }

// push enqueues a snapshot reference, dropping the oldest when the ring
// is full (the drop-to-latest discipline).
func (s *Subscriber) push(snap *Snapshot) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.ring) {
		s.start = (s.start + 1) % len(s.ring)
		s.dropped++
		obsDropped.Inc()
		if s.dropped == 1 {
			// One event per drop burst (until the next Take resets the
			// count), not one per snapshot — drops come in storms.
			obs.Flight.Record(obs.FlightDrop, snap.Seq, 1, s.id)
		}
	} else {
		s.n++
	}
	s.ring[(s.start+s.n-1)%len(s.ring)] = snap
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// close marks the subscriber terminal and wakes its serving goroutine for
// good (a closed notify channel is always ready).
func (s *Subscriber) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.notify)
}

// Notify returns the wake-up channel: it receives after pushes and is
// closed when the hub shuts down.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// Take drains the ring into buf (reused across calls), returning the
// pending snapshots oldest-first, the number of snapshots dropped to
// latest since the previous Take, and whether the hub has shut down.
func (s *Subscriber) Take(buf []*Snapshot) (snaps []*Snapshot, dropped uint64, closed bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snaps = buf[:0]
	for i := 0; i < s.n; i++ {
		j := (s.start + i) % len(s.ring)
		snaps = append(snaps, s.ring[j])
		s.ring[j] = nil
	}
	s.start, s.n = 0, 0
	dropped = s.dropped
	s.dropped = 0
	return snaps, dropped, s.closed
}
