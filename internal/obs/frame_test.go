package obs_test

import (
	"sync"
	"testing"

	"viva/internal/obs"
)

// escape keeps test allocations observable to the heap-alloc counter.
var escape []byte

// spin wastes a little time so spans have nonzero duration.
func spin() {
	s := 0
	for i := 0; i < 1000; i++ {
		s += i
	}
	_ = s
}

// TestFrameRingRecordsStages checks a frame accumulates its spans.
func TestFrameRingRecordsStages(t *testing.T) {
	r := obs.NewRing(8)
	seq := r.BeginFrame()
	for i := 0; i < 3; i++ {
		sp := r.StartSpan(obs.StageLayout)
		spin()
		sp.End()
	}
	sp := r.StartSpan(obs.StageRender)
	spin()
	sp.End()
	r.EndFrame(seq)

	frames := r.Snapshot(0)
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	f := frames[0]
	if f.Seq != seq {
		t.Errorf("seq = %d, want %d", f.Seq, seq)
	}
	if f.DurMs <= 0 {
		t.Errorf("closed frame has DurMs = %g, want > 0", f.DurMs)
	}
	byStage := map[string]obs.StageTiming{}
	for _, st := range f.Stages {
		byStage[st.Stage] = st
	}
	if st := byStage["layout"]; st.Count != 3 || st.Ns <= 0 {
		t.Errorf("layout stage = %+v, want count 3 and positive ns", st)
	}
	if st := byStage["render"]; st.Count != 1 {
		t.Errorf("render stage = %+v, want count 1", st)
	}
}

// TestFrameRingWraparound pushes more frames than the ring holds and
// checks only the newest survive, in order, with intact timings.
func TestFrameRingWraparound(t *testing.T) {
	const size = 4
	r := obs.NewRing(size)
	const total = 11
	for i := 0; i < total; i++ {
		seq := r.BeginFrame()
		sp := r.StartSpan(obs.StageAggregate)
		spin()
		sp.End()
		r.EndFrame(seq)
	}
	frames := r.Snapshot(0)
	if len(frames) != size {
		t.Fatalf("got %d frames after wraparound, want %d", len(frames), size)
	}
	for i, f := range frames {
		want := uint64(total - size + 1 + i)
		if f.Seq != want {
			t.Errorf("frame %d: seq = %d, want %d", i, f.Seq, want)
		}
		if len(f.Stages) != 1 || f.Stages[0].Stage != "aggregate" || f.Stages[0].Count != 1 {
			t.Errorf("frame %d: stages = %+v, want one aggregate span", i, f.Stages)
		}
	}
	// A bounded snapshot trims from the old end.
	last2 := r.Snapshot(2)
	if len(last2) != 2 || last2[1].Seq != total {
		t.Errorf("Snapshot(2) = %+v, want the 2 newest frames ending at seq %d", last2, total)
	}
}

// TestSpanOutsideFrameDropped checks spans with no open frame don't
// pollute the last closed frame.
func TestSpanOutsideFrameDropped(t *testing.T) {
	r := obs.NewRing(4)
	seq := r.BeginFrame()
	r.EndFrame(seq)
	sp := r.StartSpan(obs.StageBuild)
	spin()
	sp.End()
	frames := r.Snapshot(0)
	if len(frames) != 1 {
		t.Fatalf("got %d frames, want 1", len(frames))
	}
	if len(frames[0].Stages) != 0 {
		t.Errorf("closed frame gained stages %+v from a stray span", frames[0].Stages)
	}
}

// TestFrameRingConcurrent exercises frames, spans, emits, snapshots and
// subscriber attach/detach racing; correctness here is simply "no race,
// no panic, plausible snapshot" under -race.
func TestFrameRingConcurrent(t *testing.T) {
	r := obs.NewRing(8)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			seq := r.BeginFrame()
			sp := r.StartSpan(obs.StageLayout)
			sp.End()
			r.Emit(obs.StageWrite, 1)
			r.EndFrame(seq)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			rec := &recorder{}
			r.Attach(rec)
			r.Detach(rec)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			for _, f := range r.Snapshot(0) {
				if f.Seq == 0 {
					t.Error("snapshot returned seq 0")
				}
			}
		}
	}()
	wg.Wait()
}

// TestTrackAllocs checks alloc deltas appear when tracking is on.
func TestTrackAllocs(t *testing.T) {
	r := obs.NewRing(4)
	r.TrackAllocs(true)
	seq := r.BeginFrame()
	sp := r.StartSpan(obs.StageBuild)
	escape = make([]byte, 1<<16) // forced heap allocation
	sp.End()
	r.EndFrame(seq)
	frames := r.Snapshot(0)
	if len(frames) != 1 || len(frames[0].Stages) != 1 {
		t.Fatalf("unexpected snapshot %+v", frames)
	}
	if frames[0].Stages[0].Bytes < 1<<16 {
		t.Errorf("alloc delta = %d bytes, want >= %d", frames[0].Stages[0].Bytes, 1<<16)
	}
}

// recorder is a Subscriber that keeps every span it is handed.
type recorder struct {
	mu    sync.Mutex
	spans []obs.SpanEvent
}

func (r *recorder) Record(stage obs.StageID, atNs, durNs int64) {
	r.mu.Lock()
	r.spans = append(r.spans, obs.SpanEvent{Stage: stage, AtNs: atNs, DurNs: durNs})
	r.mu.Unlock()
}

// stageCount reads a stage histogram's observation count off the
// default registry.
func stageCount(t *testing.T, stage string) uint64 {
	t.Helper()
	name := `viva_stage_seconds{stage="` + stage + `"}`
	for _, m := range obs.Default.Snapshot() {
		if m.Name == name {
			return m.Count
		}
	}
	t.Fatalf("no histogram %s", name)
	return 0
}

// TestSpanFanout checks the one path a stage duration takes: a span
// ended in an open frame lands in the frame, its stage histogram and
// every attached subscriber, with the same duration everywhere; an Emit
// reaches the histogram and the subscribers but not the frame; EndFrame
// fans the frame out as the frame stage; a detached subscriber gets
// nothing; and a full SpanFeed drops and counts instead of blocking.
func TestSpanFanout(t *testing.T) {
	ring := obs.NewRing(4)
	a, b, gone := &recorder{}, &recorder{}, &recorder{}
	ring.Attach(a)
	ring.Attach(gone)
	ring.Attach(b)
	ring.Detach(gone)
	build0, apply0, frame0 := stageCount(t, "build"), stageCount(t, "apply"), stageCount(t, "frame")

	seq := ring.BeginFrame()
	sp := ring.StartSpan(obs.StageBuild)
	spin()
	sp.End()
	ring.Emit(obs.StageApply, 1000)
	ring.EndFrame(seq)

	frames := ring.Snapshot(0)
	if len(frames) != 1 || len(frames[0].Stages) != 1 {
		t.Fatalf("frames = %+v, want one frame holding only the build span", frames)
	}
	build := frames[0].Stages[0]
	if build.Stage != "build" || build.Count != 1 || build.Ns <= 0 {
		t.Fatalf("frame stage = %+v, want one positive build span", build)
	}
	for stage, before := range map[string]uint64{"build": build0, "apply": apply0, "frame": frame0} {
		if got := stageCount(t, stage) - before; got != 1 {
			t.Errorf("%s histogram gained %d observations, want 1", stage, got)
		}
	}

	frameNs := int64(frames[0].DurMs * 1e6)
	for name, r := range map[string]*recorder{"a": a, "b": b} {
		if len(r.spans) != 3 {
			t.Fatalf("subscriber %s got %+v, want build, apply, frame", name, r.spans)
		}
		if ev := r.spans[0]; ev.Stage != obs.StageBuild || ev.DurNs != build.Ns {
			t.Errorf("subscriber %s span 0 = %+v, want build of %d ns", name, ev, build.Ns)
		}
		if ev := r.spans[1]; ev.Stage != obs.StageApply || ev.DurNs != 1000 {
			t.Errorf("subscriber %s span 1 = %+v, want apply of 1000 ns", name, ev)
		}
		if ev := r.spans[2]; ev.Stage != obs.StageFrame || ev.DurNs < frameNs-1 || ev.DurNs > frameNs+1 {
			t.Errorf("subscriber %s span 2 = %+v, want frame of ~%d ns", name, ev, frameNs)
		}
		if r.spans[0].AtNs > r.spans[1].AtNs || r.spans[1].AtNs > r.spans[2].AtNs {
			t.Errorf("subscriber %s end stamps out of order: %+v", name, r.spans)
		}
	}
	if len(gone.spans) != 0 {
		t.Errorf("detached subscriber received %+v", gone.spans)
	}

	feed := obs.NewSpanFeed(2)
	ring.Attach(feed)
	ring.Emit(obs.StageApply, 1000)
	ring.Emit(obs.StageEncode, 2000)
	ring.Emit(obs.StageFanout, 3000) // full: dropped, not blocked
	if got := feed.Dropped(); got != 1 {
		t.Fatalf("feed dropped = %d, want 1", got)
	}
	if ev := <-feed.Events(); ev.Stage != obs.StageApply || ev.DurNs != 1000 {
		t.Fatalf("first feed event = %+v", ev)
	}
	if ev := <-feed.Events(); ev.Stage != obs.StageEncode || ev.DurNs != 2000 {
		t.Fatalf("second feed event = %+v", ev)
	}
	ring.Detach(feed)
	ring.Emit(obs.StageApply, 1)
	select {
	case ev := <-feed.Events():
		t.Fatalf("detached feed still received %+v", ev)
	default:
	}
}

// A stage histogram resolves the live hops' tens of µs: six 60 µs spans
// report a p50 under 100 µs, not the ~0.25 ms a first bucket of 0.5 ms
// would interpolate.
func TestStageHistogramResolvesMicroseconds(t *testing.T) {
	hop := obs.RegisterStage("test_hop")
	ring := obs.NewRing(1)
	for range 6 {
		ring.Emit(hop, 60_000)
	}
	for _, m := range obs.Default.Snapshot() {
		if m.Name == `viva_stage_seconds{stage="test_hop"}` {
			if m.Count != 6 || m.P50 >= 100e-6 || m.P50 < 50e-6 {
				t.Fatalf("six 60 µs spans: count %d, p50 %g s, want 6 and a p50 in [50, 100) µs", m.Count, m.P50)
			}
			return
		}
	}
	t.Fatal("no histogram for the test stage")
}
