package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"viva/internal/core"
	"viva/internal/stream"
	"viva/internal/trace"
)

// warmup is the trace time (seconds since the source started) before
// which delivered frames are not measured: the first frames carry the
// catalog and the initial values of every series.
const warmup = 1.0

// liveSource is the open-loop generator of live-grid5000: after the
// initial value of every series of the simulated trace, it emits seeded
// usage updates on random hosts at a fixed rate. Op k is due at start +
// k/rate and carries that due time, in seconds since start, as its trace
// time, so a frame's time field names the due time of its newest op.
type liveSource struct {
	cold  *trace.Trace
	hosts []string
	power []float64
	rate  float64
	seed  int64

	mu    sync.Mutex // guards the fields below
	start time.Time
	late  samples // ms the generator ran behind each batch's due time
}

func newLiveSource(cold *trace.Trace, rate float64, seed int64) *liveSource {
	s := &liveSource{cold: cold, rate: rate, seed: seed}
	for _, h := range cold.ResourcesOfType(trace.TypeHost) {
		s.hosts = append(s.hosts, h.Name)
		s.power = append(s.power, cold.Timeline(h.Name, trace.MetricPower).At(0))
	}
	return s
}

// Prime declares the simulated trace's resources and edges.
func (s *liveSource) Prime(tr *trace.Trace) error {
	for _, res := range s.cold.Resources() {
		if err := tr.DeclareResource(res.Name, res.Type, res.Parent); err != nil {
			return err
		}
	}
	for _, e := range s.cold.Edges() {
		if err := tr.DeclareEdge(e.A, e.B); err != nil {
			return err
		}
	}
	return nil
}

func (s *liveSource) Run(ctx context.Context, emit func(stream.Op) error) error {
	start := time.Now()
	s.mu.Lock()
	s.start = start
	s.mu.Unlock()
	for i, n := 0, s.cold.NumVariables(); i < n; i++ {
		res, met := s.cold.VariableAt(i)
		v := s.cold.Timeline(res, met).At(0)
		if err := emit(stream.Op{Kind: stream.OpSet, T: 0, Resource: res, Metric: met, Value: v}); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(s.seed))
	for k := 1; ; {
		now := time.Since(start).Seconds()
		due := float64(k) / s.rate
		if due > now {
			// Wake at most once a millisecond and emit what is due then;
			// each op still carries its own due time.
			wait := max(time.Duration((due-now)*float64(time.Second)), time.Millisecond)
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(wait):
			}
			now = time.Since(start).Seconds()
		}
		s.mu.Lock()
		s.late = append(s.late, 1e3*(now-due))
		s.mu.Unlock()
		// Emit every op already due, in due order.
		for ; float64(k)/s.rate <= now; k++ {
			h := rng.Intn(len(s.hosts))
			op := stream.Op{Kind: stream.OpSet, T: float64(k) / s.rate, Resource: s.hosts[h],
				Metric: trace.MetricUsage, Value: s.power[h] * rng.Float64()}
			if err := emit(op); err != nil {
				if errors.Is(err, context.Canceled) {
					return nil
				}
				return err
			}
		}
	}
}

// liveEnv is a served live view: the stream publisher bound to the
// server's lock, as vivaserve -live wires it.
type liveEnv struct {
	src *liveSource
	st  *stream.Stream
	srv *served
}

func (r *runner) setupLive(t *tracer) (*liveEnv, error) {
	sc, err := r.simulate(t)
	if err != nil {
		return nil, err
	}
	src := newLiveSource(sc.tr, r.sc.liveRate, r.seed)
	st, err := stream.New(src, stream.Config{})
	if err != nil {
		return nil, err
	}
	sp := t.start("core.NewView", 0)
	t0 := time.Now()
	v, err := core.NewView(st.Trace())
	t.end(sp)
	if err != nil {
		return nil, err
	}
	if t != nil {
		r.layer["core.newview_ms"] = float64(time.Since(t0)) / 1e6
	}
	if err := v.SetLevel(r.sc.liveLevel); err != nil {
		return nil, err
	}
	srv, err := serve(v, st)
	if err != nil {
		return nil, err
	}
	st.Bind(srv.srv.Locker(), func(uint64, float64) { v.RefreshSource() })
	return &liveEnv{src: src, st: st, srv: srv}, nil
}

// runLive is live-grid5000: the open-loop source feeds the publisher at
// the default 100 ms tick, one client reads /api/stream and one UI page
// polls /api/graph?steps=5, over two connections.
func runLive(r *runner) error {
	env, _, err := timeSetups(r, func() (*liveEnv, func(), error) {
		env, err := r.setupLive(r.t)
		if err != nil {
			return nil, nil, err
		}
		return env, env.srv.close, nil
	})
	if err != nil {
		return err
	}
	// A stream runs once, so the traced pass gets a fresh one.
	return r.pass(func(t *tracer) (float64, error) {
		if env == nil {
			if env, err = r.setupLive(nil); err != nil {
				return 0, err
			}
		}
		defer func() { env.srv.close(); env = nil }()
		return r.liveSession(env, t)
	})
}

// sseFrame is the part of a stream snapshot the client checks.
type sseFrame struct {
	Seq    uint64  `json:"seq"`
	Time   float64 `json:"time"`
	Events int     `json:"events"`
}

func (r *runner) liveSession(env *liveEnv, t *tracer) (float64, error) {
	env.srv.setTracer(t)
	defer env.srv.setTracer(nil)
	// The publisher stops first; the hub then closes, which ends the SSE
	// response with a shutdown event. sseCtx only guards error paths.
	pubCtx, stopPub := context.WithCancel(context.Background())
	defer stopPub()
	sseCtx, cancelSSE := context.WithCancel(context.Background())
	defer cancelSSE()

	// The SSE reader connects before the publisher starts, so it sees
	// every frame from the first.
	sse := newClient(env.srv.url)
	defer sse.close()
	req, err := http.NewRequestWithContext(sseCtx, http.MethodGet, env.srv.url+"/api/stream", nil)
	if err != nil {
		return 0, err
	}
	resp, err := sse.hc.Do(req)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return 0, fmt.Errorf("stream: status %d", resp.StatusCode)
	}
	// The reader owns these until readerDone closes.
	var (
		lags, dataBytes samples
		opLags          samples // one per op a measured frame reflects
		ops, dropped    int64
		frames          int64
		failures        []string
		readerDone      = make(chan struct{})
		measuredUntil   = time.Now().Add(time.Duration(warmup*float64(time.Second)) + r.seconds)
	)
	fail := func(format string, args ...any) { failures = append(failures, fmt.Sprintf(format, args...)) }
	go func() {
		defer close(readerDone)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 64<<20)
		var event string
		var prev, gap uint64
		var prevTime float64
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				data := line[len("data: "):]
				recv := time.Now()
				switch event {
				case "gap":
					var g struct{ Dropped uint64 }
					if err := json.Unmarshal([]byte(data), &g); err != nil {
						fail("live: unparsable gap event: %v", err)
					}
					gap += g.Dropped
					dropped += int64(g.Dropped)
				case "delta", "full":
					frames++
					var f sseFrame
					if err := json.Unmarshal([]byte(data), &f); err != nil {
						fail("live: unparsable %s frame: %v", event, err)
						continue
					}
					if prev != 0 && f.Seq != prev+1+gap && !(event == "full" && f.Seq == prev) {
						fail("live: frame seq %d after %d with %d dropped", f.Seq, prev, gap)
					}
					if f.Seq > prev {
						prev, gap = f.Seq, 0
					}
					env.src.mu.Lock()
					start := env.src.start
					env.src.mu.Unlock()
					span := f.Time - prevTime
					prevTime = f.Time
					if f.Time < warmup || start.IsZero() || recv.After(measuredUntil) {
						continue
					}
					due := start.Add(time.Duration(f.Time * float64(time.Second)))
					newest := float64(recv.Sub(due)) / 1e6
					lags = append(lags, newest)
					// The generator emits op k at its due time k/rate, so a
					// frame's ops were due evenly over the trace time since
					// the previous frame; the newest is due at f.Time.
					for j := 0; j < f.Events; j++ {
						opLags = append(opLags, newest+1e3*span*float64(j)/float64(f.Events))
					}
					ops += int64(f.Events)
					dataBytes = append(dataBytes, float64(len(data)))
					t.record("journey.live", due, recv)
				case "shutdown":
					return
				}
				event = ""
			}
		}
	}()

	pubDone := make(chan error, 1)
	go func() { pubDone <- env.st.Run(pubCtx) }()

	// The UI page: poll, wait, poll again. The browser UI waits 150 ms;
	// here the wait is drawn from [100, 200) ms by the seed, so the polls
	// fall at every phase of the tick and a run sees the share of ticks
	// that wait out a poll, not the share one locked phase happens to give.
	ui := newClient(env.srv.url)
	defer ui.close()
	pollRng := rand.New(rand.NewSource(r.seed))
	var (
		polls samples
		last  graphBody
	)
	for time.Now().Before(measuredUntil) {
		root := t.begin("journey.poll")
		r.attempted++
		t0 := time.Now()
		b, err := ui.do(t, root, "GET", "/api/graph?steps=5", nil)
		wait := time.Since(t0)
		var g graphBody
		if err == nil {
			err = json.Unmarshal(b, &g)
		}
		if err != nil || len(g.Nodes) == 0 {
			r.fail("live: poll: %v (%d bytes)", err, len(b))
		} else {
			polls = append(polls, float64(wait)/1e6)
			last = g
		}
		t.end(root)
		time.Sleep(time.Duration(100+pollRng.Intn(100)) * time.Millisecond)
	}
	stopPub()
	pubErr := <-pubDone
	env.st.Hub.Close()
	<-readerDone
	if pubErr != nil && !errors.Is(pubErr, context.Canceled) {
		return 0, fmt.Errorf("publisher: %w", pubErr)
	}
	r.attempted += frames
	for _, f := range failures {
		r.fail("%s", f)
	}

	rep := env.st.Report()
	r.attempted += int64(rep.Events + rep.Errors)
	if rep.Errors > 0 {
		r.fail("live: publisher rejected %d ops", rep.Errors) // counts the first
		r.failed += int64(rep.Errors) - 1
	}
	wall := measuredUntil.Sub(env.src.start).Seconds() - warmup
	if t == nil {
		r.note("live: %d ticks, %d sheds, %d frames measured, %d ops reflected over %.1f s (offered %g/s), %d dropped",
			rep.Ticks, rep.Sheds, len(lags), ops, wall, r.sc.liveRate, dropped)
		r.note("live: UI polls p50 %.3f ms over %d", polls.p50(), len(polls))
		r.note("live: newest-op lag per frame p50 %.3f ms over %d frames", lags.p50(), len(lags))
		p50 := r.reportOpLags(opLags, len(lags))
		r.e2e["heap_mb"] = heapMB()
		return p50, nil
	}
	s := env.srv
	s.mu.Lock()
	r.layer["core.graph_ms"] = s.graph.p50()
	r.layer["layout.step_ms"] = s.layout.p50()
	r.layer["server.encode_ms"] = s.encode.p50()
	s.mu.Unlock()
	r.layer["ui.poll_p50_ms"] = polls.p50()
	r.layer["vizgraph.nodes"] = float64(len(last.Nodes))
	r.layer["vizgraph.edges"] = float64(len(last.Edges))
	r.layer["stream.tick_p50_ms"] = float64(rep.P50) / 1e6
	r.layer["stream.tick_p99_ms"] = float64(rep.P99) / 1e6
	r.layer["stream.sheds"] = float64(rep.Sheds)
	r.layer["stream.frame_bytes"] = dataBytes.p50()
	r.layer["stream.dropped"] = float64(dropped)
	r.layer["stream.ops_s"] = float64(ops) / wall
	r.layer["stream.newest_lag_p50_ms"] = lags.p50()
	env.src.mu.Lock()
	r.layer["harness.gen_late_ms"] = env.src.late.quantile(0.99)
	env.src.mu.Unlock()
	return opLags.p50(), nil
}

// reportOpLags sets the frame metrics of live-grid5000 from the lag of
// every op a measured frame reflected: from the op's due time until the
// SSE bytes of its frame were read. The tail percentile leaves at least
// ten frames' worth of ops beyond it.
//
// Per frame, only the newest op's lag is a sample of its own: ~10 ms of
// publisher and SSE work, whose median and tail spread from run to run
// past the frame bounds on a 2-CPU VM (see README.md). The per-op lag
// adds each op's wait for the tick, which holds still. The per-frame
// median stays in the traced run as stream.newest_lag_p50_ms.
func (r *runner) reportOpLags(opLags samples, frames int) float64 {
	pct := tailPercent(frames)
	p50, tail := opLags.p50(), opLags.quantile(float64(pct)/100)
	r.e2e["frame_p50_ms"] = p50
	r.e2e["frame_tail_ms"] = tail
	r.note("live op lag: p50 %.3f ms, tail p%d %.3f ms over %d ops in %d frames", p50, pct, tail, len(opLags), frames)
	return p50
}
