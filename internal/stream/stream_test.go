package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"viva/internal/obs"
	"viva/internal/trace"
)

func snap(seq uint64) *Snapshot {
	return &Snapshot{Seq: seq, Time: float64(seq), Data: []byte(fmt.Sprintf(`{"seq":%d}`, seq))}
}

func drain(t *testing.T, sub *Subscriber) (seqs []uint64, dropped uint64, closed bool) {
	t.Helper()
	snaps, dropped, closed := sub.Take(nil)
	for _, s := range snaps {
		seqs = append(seqs, s.Seq)
	}
	return seqs, dropped, closed
}

func TestHubFanoutAndDropToLatest(t *testing.T) {
	h := NewHub(10, 4, 8)
	sub, err := h.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 3; seq++ {
		h.Publish(snap(seq))
	}
	seqs, dropped, closed := drain(t, sub)
	if fmt.Sprint(seqs) != "[1 2 3]" || dropped != 0 || closed {
		t.Fatalf("got %v dropped=%d closed=%v", seqs, dropped, closed)
	}

	// Overflow the ring (cap 4): the oldest coalesce away and the count
	// survives into the next Take.
	for seq := uint64(4); seq <= 13; seq++ {
		h.Publish(snap(seq))
	}
	seqs, dropped, _ = drain(t, sub)
	if fmt.Sprint(seqs) != "[10 11 12 13]" {
		t.Fatalf("drop-to-latest kept %v", seqs)
	}
	if dropped != 6 {
		t.Fatalf("dropped = %d, want 6", dropped)
	}
	// Dropped counter resets after the Take that reported it.
	if _, dropped, _ = drain(t, sub); dropped != 0 {
		t.Fatalf("dropped did not reset: %d", dropped)
	}
}

func TestHubResume(t *testing.T) {
	h := NewHub(10, 16, 8)
	for seq := uint64(1); seq <= 20; seq++ {
		h.Publish(snap(seq))
	}
	h.SetFull(&Snapshot{Seq: 20, Time: 20, Full: true, Data: []byte(`{"full":true}`)})

	// In-window resume (window holds 13..20): deltas after lastSeq only.
	sub, err := h.Subscribe(15)
	if err != nil {
		t.Fatal(err)
	}
	seqs, _, _ := drain(t, sub)
	if fmt.Sprint(seqs) != "[16 17 18 19 20]" {
		t.Fatalf("in-window resume got %v", seqs)
	}

	// Fully caught-up resume: nothing replayed.
	sub, _ = h.Subscribe(20)
	if seqs, _, _ := drain(t, sub); len(seqs) != 0 {
		t.Fatalf("caught-up resume got %v", seqs)
	}

	// Out-of-window resume: full snapshot, then deltas after it (none —
	// the full carries seq 20).
	sub, _ = h.Subscribe(3)
	snaps, _, _ := sub.Take(nil)
	if len(snaps) != 1 || !snaps[0].Full || snaps[0].Seq != 20 {
		t.Fatalf("out-of-window resume got %+v", snaps)
	}

	// Fresh connect behaves like out-of-window.
	sub, _ = h.Subscribe(0)
	snaps, _, _ = sub.Take(nil)
	if len(snaps) != 1 || !snaps[0].Full {
		t.Fatalf("fresh connect got %+v", snaps)
	}

	// No gap between backfill and live publishes.
	h.Publish(snap(21))
	if seqs, _, _ := drain(t, sub); fmt.Sprint(seqs) != "[21]" {
		t.Fatalf("live continuation got %v", seqs)
	}
}

func TestHubAdmissionAndClose(t *testing.T) {
	h := NewHub(2, 4, 8)
	a, err := h.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = h.Subscribe(0); err != ErrFull {
		t.Fatalf("third subscribe: %v, want ErrFull", err)
	}
	h.Unsubscribe(a)
	if _, err = h.Subscribe(0); err != nil {
		t.Fatalf("after unsubscribe: %v", err)
	}

	h.Close()
	if _, err = h.Subscribe(0); err != ErrClosed {
		t.Fatalf("subscribe after close: %v, want ErrClosed", err)
	}
	// Close wakes still-registered subscribers terminally: their notify
	// channel is closed and Take reports shutdown.
	select {
	case <-b.Notify():
	case <-time.After(time.Second):
		t.Fatal("close did not wake subscriber")
	}
	if _, _, closed := b.Take(nil); !closed {
		t.Fatal("Take after close not terminal")
	}
}

// buildCold builds a small finished trace with hosts, links, edges,
// states and two metrics — enough structure to exercise replay fully.
func buildCold(t testing.TB, hosts int, events int, seed int64) *trace.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	for i := 0; i < hosts; i++ {
		h := fmt.Sprintf("h%d", i)
		tr.MustDeclareResource(h, trace.TypeHost, "root")
		if i > 0 {
			l := fmt.Sprintf("l%d", i)
			tr.MustDeclareResource(l, trace.TypeLink, "root")
			tr.MustDeclareEdge("h0", l)
			tr.MustDeclareEdge(l, h)
		}
	}
	now := 0.0
	for i := 0; i < events; i++ {
		now += rng.Float64() / 10
		h := fmt.Sprintf("h%d", rng.Intn(hosts))
		switch rng.Intn(4) {
		case 0:
			if err := tr.Set(now, h, trace.MetricPower, 100); err != nil {
				t.Fatal(err)
			}
		case 1:
			if err := tr.SetState(now, h, "compute"); err != nil {
				t.Fatal(err)
			}
		default:
			if err := tr.Set(now, h, trace.MetricUsage, rng.Float64()*100); err != nil {
				t.Fatal(err)
			}
		}
	}
	tr.SetEnd(now + 1)
	return tr
}

// TestReplayByteIdentity is the ground truth of the whole pipeline: a
// stream fed by replaying a finished trace must leave the live trace
// byte-identical (under trace.Write) to a cold load of the original.
func TestReplayByteIdentity(t *testing.T) {
	cold := buildCold(t, 8, 500, 1)
	s, err := New(NewReplay(cold, 0), Config{Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := trace.Write(&want, cold); err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(&got, s.Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("live trace differs from cold trace (%d vs %d bytes)", got.Len(), want.Len())
	}
	r := s.Report()
	if r.Events == 0 || r.Errors != 0 || r.FinalSeq == 0 {
		t.Fatalf("report %+v", r)
	}
}

// TestPublisherSnapshots checks the delta/full cadence and the JSON
// shape subscribers decode.
func TestPublisherSnapshots(t *testing.T) {
	cold := buildCold(t, 4, 200, 2)
	s, err := New(NewReplay(cold, 0), Config{Tick: time.Millisecond, FullEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Hub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snaps, _, _ := sub.Take(nil)
	if len(snaps) == 0 {
		t.Fatal("no snapshots published")
	}
	var lastSeq uint64
	for _, sn := range snaps {
		if sn.Seq <= lastSeq && !sn.Full {
			t.Fatalf("non-monotonic delta seq %d after %d", sn.Seq, lastSeq)
		}
		lastSeq = sn.Seq
		var f struct {
			Seq    uint64     `json:"seq"`
			Window [2]float64 `json:"window"`
			Series []struct {
				Resource string  `json:"resource"`
				Metric   string  `json:"metric"`
				Mean     float64 `json:"mean"`
			} `json:"series"`
		}
		if err := json.Unmarshal(sn.Data, &f); err != nil {
			t.Fatalf("snapshot %d: bad JSON: %v", sn.Seq, err)
		}
		if f.Seq != sn.Seq {
			t.Fatalf("payload seq %d != snapshot seq %d", f.Seq, sn.Seq)
		}
	}
	full := s.Hub.Full()
	if full == nil || !full.Full {
		t.Fatal("no full snapshot installed")
	}
	var ff struct {
		Full      bool `json:"full"`
		Resources []struct {
			Name string `json:"name"`
			Type string `json:"type"`
		} `json:"resources"`
		Edges [][2]string `json:"edges"`
	}
	if err := json.Unmarshal(full.Data, &ff); err != nil {
		t.Fatal(err)
	}
	if !ff.Full || len(ff.Resources) != len(cold.Resources()) || len(ff.Edges) != len(cold.Edges()) {
		t.Fatalf("full snapshot catalog: %d resources %d edges, want %d and %d",
			len(ff.Resources), len(ff.Edges), len(cold.Resources()), len(cold.Edges()))
	}
	if full.Seq != s.Report().FinalSeq {
		t.Fatalf("final full seq %d != final seq %d", full.Seq, s.Report().FinalSeq)
	}
}

// TestFollowSource streams a file that is still being written: the tail
// blocks on EOF, picks up appended lines, and ends at the terminal
// directive with the live trace byte-identical to the file's content.
func TestFollowSource(t *testing.T) {
	cold := buildCold(t, 4, 300, 3)
	var enc bytes.Buffer
	if err := trace.Write(&enc, cold); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(enc.Bytes(), []byte("\n"))

	path := t.TempDir() + "/grow.viva"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	// Write the first half (including a dangling half line) before the
	// stream starts, the rest while it runs.
	half := len(lines) / 2
	for _, ln := range lines[:half] {
		f.Write(ln)
	}
	f.Write(lines[half][:len(lines[half])/2]) // torn line
	f.Sync()

	fol := NewFollow(path)
	fol.poll = 2 * time.Millisecond
	s, err := New(fol, Config{Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Prime saw the declaration prefix already on disk.
	if got, want := len(s.Trace().Resources()), len(cold.Resources()); got != want {
		t.Fatalf("primed %d resources, want %d", got, want)
	}
	go func() {
		f.Write(lines[half][len(lines[half])/2:])
		for _, ln := range lines[half+1:] {
			f.Write(ln)
		}
		f.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Run(ctx); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := trace.Write(&got, s.Trace()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), got.Bytes()) {
		t.Fatalf("followed trace differs from source file (%d vs %d bytes)", got.Len(), enc.Len())
	}
}

// TestFollowRejectsNonFiniteTime: the live follower refuses what the heap
// reader refuses, one timed directive at a time.
func TestFollowRejectsNonFiniteTime(t *testing.T) {
	for directive, line := range map[string]string{
		"set":   "set inf h usage 1",
		"add":   "add -Inf h usage 1",
		"state": "state NaN h busy",
		"end":   "end +inf",
	} {
		path := t.TempDir() + "/f.viva"
		src := "resource h host -\nset 0 h power 5\n" + line + "\nend 2\n"
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := NewFollow(path).Run(ctx, func(Op) error { return nil })
		if err == nil || ctx.Err() != nil {
			t.Errorf("%s: err = %v, want the line refused", directive, err)
		}
		cancel()
	}
}

// TestTickStaysOutOfFrames checks a publisher tick hands its hops to the
// span fan-out in hop order, and that none of them lands in an
// interactive frame open on the same ring meanwhile.
func TestTickStaysOutOfFrames(t *testing.T) {
	cold := buildCold(t, 4, 400, 5)
	var ops []Op
	if err := NewReplay(cold, 0).Run(context.Background(), func(op Op) error {
		ops = append(ops, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	s, err := New(NewReplay(cold, 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	feed := obs.NewSpanFeed(64)
	obs.Frames.Attach(feed)
	defer obs.Frames.Detach(feed)

	seq := obs.Frames.BeginFrame()
	s.tick(ops, false, obs.NowNs())
	obs.Frames.EndFrame(seq)

	for _, f := range obs.Frames.Snapshot(0) {
		if f.Seq == seq && len(f.Stages) != 0 {
			t.Errorf("tick spans landed in the open frame: %+v", f.Stages)
		}
	}
	var got []string
	for len(feed.Events()) > 0 {
		got = append(got, obs.StageName((<-feed.Events()).Stage))
	}
	want := []string{"intake", "apply", "window", "encode", "fanout", "frame"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("fanned-out stages = %v, want %v", got, want)
	}
}

// TestSelfStreamKeepsOutOfStreamSeries runs an idle self-stream at a 2ms
// tick. The viva_stream_* series and the stream SLOs describe the served
// live stream, so none of them may move, and the tick gauge keeps the
// value the served stream set.
func TestSelfStreamKeepsOutOfStreamSeries(t *testing.T) {
	s, err := New(NewSelfSource(obs.NewSpanFeed(64)), Config{Tick: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	series := func() map[string]float64 {
		m := map[string]float64{
			"viva_stream_publish_seconds_count":   float64(obsPublish.Count()),
			"viva_stream_staleness_seconds_count": float64(obsStaleness.Count()),
			"viva_stream_tick_seconds":            obsTick.Value(),
		}
		for _, ms := range obs.Default.Snapshot() {
			if strings.HasPrefix(ms.Family, "viva_stream_") && ms.Kind == "counter" ||
				strings.HasPrefix(ms.Family, "viva_slo_") && strings.Contains(ms.Name, "stream_") {
				m[ms.Name] = ms.Value
			}
		}
		return m
	}
	obsTick.Set(0.25)
	before := series()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx) }()
	for deadline := time.Now().Add(5 * time.Second); s.Report().Ticks < 20; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d ticks in 5s, want 20", s.Report().Ticks)
		}
	}
	cancel()
	<-done

	for name, after := range series() {
		if after != before[name] {
			t.Errorf("%s went from %g to %g over an idle self-stream", name, before[name], after)
		}
	}
}

// TestReportKeepsRecentLatencies ticks past the latency window: Report
// keeps only the last latencyWindow tick latencies, and its percentiles
// are the exact order statistics of that window.
func TestReportKeepsRecentLatencies(t *testing.T) {
	s, err := New(NewReplay(trace.New(), 0), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Ticks 1..n take n ms; the window then holds the last latencyWindow.
	n := latencyWindow + 300
	for i := 1; i <= n; i++ {
		s.ticks = i
		s.record(time.Duration(i) * time.Millisecond)
	}
	if got := len(s.latencies); got != latencyWindow {
		t.Fatalf("%d latencies kept, want %d", got, latencyWindow)
	}
	r := s.Report()
	first := n - latencyWindow + 1
	ms := func(i int) time.Duration { return time.Duration(i) * time.Millisecond }
	if r.P50 != ms(first+latencyWindow/2) || r.P99 != ms(first+latencyWindow*99/100) || r.Max != ms(n) {
		t.Fatalf("P50/P99/Max = %v/%v/%v, want %v/%v/%v", r.P50, r.P99, r.Max,
			ms(first+latencyWindow/2), ms(first+latencyWindow*99/100), ms(n))
	}
}
