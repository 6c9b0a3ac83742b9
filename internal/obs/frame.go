// Stage spans: where does one interactive frame's budget, or one live
// tick, go? The server brackets each /api/graph frame with
// BeginFrame/EndFrame; the pipeline stages (aggregation, graph build,
// layout step, render) wrap their work in StartSpan/End pairs, and the
// live pipeline hands its already-measured hops to Emit.
//
// Every stage duration takes one path, fanout: the stage's
// viva_stage_seconds histogram observes it, then every subscriber
// attached to the ring (the Paje meta-trace, the live span feed) gets
// it. A span ended inside an open frame also accumulates per-stage wall
// time, call counts and (optionally) heap-alloc deltas in a bounded
// lock-free ring the /api/obs/frames endpoint snapshots; Emit skips the
// frame, so live ticks never pollute interactive frames.

package obs

import (
	"runtime/metrics"
	"slices"
	"sync"
	"sync/atomic"
)

// MaxStages bounds the stage table; stage slots live inline in every ring
// frame, so the table is small and fixed.
const MaxStages = 16

// stageEntry is one registered stage: its name and its histogram.
type stageEntry struct {
	name string
	hist *Histogram
}

var (
	stagesMu sync.Mutex // serializes RegisterStage
	stages   atomic.Pointer[[]stageEntry]
)

// StageID indexes a registered pipeline stage.
type StageID int32

const stageHelp = "Wall time of one pipeline stage span: request-path stages, live hops and whole frames."

// stageBuckets are the stage histograms' bounds, in seconds: 1 µs to
// 2.5 s in 1–2.5–5 steps, so a live hop of tens of µs and a cold open of
// seconds each land in a bucket of their own size.
var stageBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
}

// RegisterStage interns a stage name, returning its id (idempotent), and
// creates its viva_stage_seconds{stage=<name>} histogram in Default.
// It panics past MaxStages — stages are a small fixed vocabulary.
func RegisterStage(name string) StageID {
	stagesMu.Lock()
	defer stagesMu.Unlock()
	var cur []stageEntry
	if p := stages.Load(); p != nil {
		cur = *p
	}
	for i, st := range cur {
		if st.name == name {
			return StageID(i)
		}
	}
	if len(cur) >= MaxStages {
		panic("obs: too many stages: " + name)
	}
	h := Default.Histogram(`viva_stage_seconds{stage="`+name+`"}`, stageHelp, stageBuckets)
	next := append(slices.Clip(cur), stageEntry{name, h})
	stages.Store(&next)
	return StageID(len(next) - 1)
}

// StageName returns the name a stage id was registered under, or "" for
// an id no stage has.
func StageName(id StageID) string {
	all := *stages.Load()
	if int(id) < 0 || int(id) >= len(all) {
		return ""
	}
	return all[id].name
}

// The pipeline's own stages, in frame order. Ingest runs before any frame
// exists, so its spans reach only the histogram and the subscribers.
var (
	StageIngest    = RegisterStage("ingest")
	StageCompact   = RegisterStage("compact")
	StageAggregate = RegisterStage("aggregate")
	StageBuild     = RegisterStage("build")
	StageCoarsen   = RegisterStage("coarsen")
	StageLayout    = RegisterStage("layout")
	StageRender    = RegisterStage("render")
)

// The live pipeline's stages, in hop order source→client. They go
// through Emit, so they never land in interactive frames.
var (
	StageIntake = RegisterStage("intake")
	StageApply  = RegisterStage("apply")
	StageWindow = RegisterStage("window")
	StageEncode = RegisterStage("encode")
	StageFanout = RegisterStage("fanout")
	StageWrite  = RegisterStage("write")
)

// StageFrame is a whole interactive frame, BeginFrame to EndFrame. It
// reaches the histogram and the subscribers, never a frame's own stages.
var StageFrame = RegisterStage("frame")

// frameSlot is one ring entry. seq tags which frame currently occupies
// the slot, so late spans from an evicted frame cannot corrupt its
// successor; end stays 0 while the frame is open.
type frameSlot struct {
	seq   atomic.Uint64
	start atomic.Int64 // NowNs clock
	end   atomic.Int64

	ns    [MaxStages]atomic.Int64
	count [MaxStages]atomic.Int64
	bytes [MaxStages]atomic.Int64
}

// Ring is the bounded frame-timing buffer and the owner of the span
// fan-out's subscriber list. All methods are safe for concurrent use and
// allocation-free except the snapshots and Attach/Detach.
type Ring struct {
	slots  []frameSlot
	seq    atomic.Uint64 // last BeginFrame's number; 0 = never
	subsMu sync.Mutex    // serializes Attach/Detach
	subs   atomic.Pointer[[]Subscriber]

	trackAllocs atomic.Bool
}

// NewRing returns a ring holding the last n frames (n < 1 means 256).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 256
	}
	r := &Ring{slots: make([]frameSlot, n)}
	r.subs.Store(new([]Subscriber))
	return r
}

// Frames is the process-wide ring the server and the default StartSpan
// record into.
var Frames = NewRing(256)

// TrackAllocs toggles heap-allocation deltas on spans: each span then
// reads the process-wide /gc/heap/allocs:bytes counter at its start and
// end, so whatever else allocated meanwhile (live ticks, other requests)
// is attributed to the stage too. It costs two runtime/metrics reads per
// span; off (the default) keeps the hot path at ~tens of nanoseconds.
func (r *Ring) TrackAllocs(on bool) { r.trackAllocs.Store(on) }

// A Subscriber receives every stage duration fanned out through the ring
// it is attached to, after the stage's histogram has observed it: the
// stage, the end stamp (NowNs clock) and the duration in nanoseconds. It
// runs on the producer's goroutine, so it must not block.
type Subscriber interface {
	Record(stage StageID, atNs, durNs int64)
}

// Attach adds a subscriber to the ring's fan-out. The list is copied on
// every edit, so fanout reads it with one atomic load and no lock.
func (r *Ring) Attach(s Subscriber) {
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	next := append(slices.Clip(*r.subs.Load()), s)
	r.subs.Store(&next)
}

// Detach removes a subscriber; a span already past the list load may
// still reach it.
func (r *Ring) Detach(s Subscriber) {
	r.subsMu.Lock()
	defer r.subsMu.Unlock()
	next := slices.DeleteFunc(slices.Clone(*r.subs.Load()), func(x Subscriber) bool { return x == s })
	r.subs.Store(&next)
}

// fanout is the one path every stage duration takes — Span.End, Emit
// and EndFrame all end here: the stage's viva_stage_seconds histogram
// observes it, then each attached subscriber gets it.
func (r *Ring) fanout(stage StageID, atNs, durNs int64) {
	(*stages.Load())[stage].hist.Observe(float64(durNs) / 1e9)
	for _, s := range *r.subs.Load() {
		s.Record(stage, atNs, durNs)
	}
}

// BeginFrame opens the next frame and returns its sequence number.
func (r *Ring) BeginFrame() uint64 {
	s := r.seq.Add(1)
	slot := &r.slots[s%uint64(len(r.slots))]
	slot.seq.Store(0) // retire the evicted frame before resetting
	for i := 0; i < MaxStages; i++ {
		slot.ns[i].Store(0)
		slot.count[i].Store(0)
		slot.bytes[i].Store(0)
	}
	slot.end.Store(0)
	slot.start.Store(NowNs())
	slot.seq.Store(s)
	return s
}

// EndFrame closes the frame opened by the matching BeginFrame and fans
// its duration out as the frame stage.
func (r *Ring) EndFrame(seq uint64) {
	slot := &r.slots[seq%uint64(len(r.slots))]
	if slot.seq.Load() != seq {
		return // already evicted by a wrapped ring
	}
	end := NowNs()
	slot.end.Store(end)
	r.fanout(StageFrame, end, end-slot.start.Load())
}

// Span is one in-flight stage measurement. It is a value: starting and
// ending a span never allocates.
type Span struct {
	ring       *Ring
	stage      StageID
	startNs    int64
	startBytes uint64
}

// StartSpan begins measuring a stage against the ring.
func (r *Ring) StartSpan(stage StageID) Span {
	sp := Span{ring: r, stage: stage, startNs: NowNs()}
	if r.trackAllocs.Load() {
		sp.startBytes = heapAllocBytes()
	}
	return sp
}

// StartSpan begins a stage span on the default ring.
func StartSpan(stage StageID) Span { return Frames.StartSpan(stage) }

// End stops the span: its duration (and alloc delta, if tracking)
// accumulates into the currently open frame, if any, and goes through
// the fan-out either way.
func (sp Span) End() {
	r := sp.ring
	if r == nil {
		return
	}
	end := NowNs()
	d := end - sp.startNs
	if s := r.seq.Load(); s != 0 {
		slot := &r.slots[s%uint64(len(r.slots))]
		// Record only into a frame that is still the slot's occupant and
		// still open; stray spans between frames are dropped.
		if slot.seq.Load() == s && slot.end.Load() == 0 {
			slot.ns[sp.stage].Add(d)
			slot.count[sp.stage].Add(1)
			if r.trackAllocs.Load() {
				slot.bytes[sp.stage].Add(int64(heapAllocBytes() - sp.startBytes))
			}
		}
	}
	r.fanout(sp.stage, end, d)
}

// Emit fans out an already-measured stage duration that ended now,
// skipping the frame slots. The live pipeline's per-tick hops and SSE
// writes use it: ticks are not interactive frames and must not pollute
// /api/obs/frames. Zero allocations.
func (r *Ring) Emit(stage StageID, durNs int64) { r.fanout(stage, NowNs(), durNs) }

// heapAllocMetric is the cumulative heap allocation counter of
// runtime/metrics — cheap to read (no stop-the-world), monotonic.
const heapAllocMetric = "/gc/heap/allocs:bytes"

func heapAllocBytes() uint64 {
	var s [1]metrics.Sample
	s[0].Name = heapAllocMetric
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// StageTiming is one stage's accumulated share of a frame.
type StageTiming struct {
	Stage string `json:"stage"`
	Ns    int64  `json:"ns"`
	Count int64  `json:"count"`
	Bytes int64  `json:"bytes,omitempty"`
}

// Frame is a snapshot of one recorded frame.
type Frame struct {
	Seq     uint64        `json:"seq"`
	StartMs float64       `json:"start_ms"` // since process obs epoch
	DurMs   float64       `json:"dur_ms"`   // 0 while the frame is open
	Stages  []StageTiming `json:"stages"`
}

// Snapshot returns up to max recent frames, oldest first. Frames being
// written concurrently may show partially accumulated stages — this is
// monitoring data, not a synchronization point.
func (r *Ring) Snapshot(max int) []Frame {
	if max < 1 || max > len(r.slots) {
		max = len(r.slots)
	}
	newest := r.seq.Load()
	if newest == 0 {
		return nil
	}
	lo := uint64(1)
	if newest > uint64(max) {
		lo = newest - uint64(max) + 1
	}
	frames := make([]Frame, 0, newest-lo+1)
	for s := lo; s <= newest; s++ {
		slot := &r.slots[s%uint64(len(r.slots))]
		if slot.seq.Load() != s {
			continue // evicted (or mid-reset) while we walked
		}
		f := Frame{Seq: s, StartMs: float64(slot.start.Load()) / 1e6}
		if end := slot.end.Load(); end != 0 {
			f.DurMs = float64(end-slot.start.Load()) / 1e6
		}
		for i, st := range *stages.Load() {
			if c := slot.count[i].Load(); c != 0 {
				f.Stages = append(f.Stages, StageTiming{
					Stage: st.name,
					Ns:    slot.ns[i].Load(),
					Count: c,
					Bytes: slot.bytes[i].Load(),
				})
			}
		}
		if slot.seq.Load() != s {
			continue // wrapped under us: discard the torn read
		}
		frames = append(frames, f)
	}
	return frames
}
