package stream

import (
	"bytes"
	"context"
	"log/slog"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"viva/internal/aggregation"
	"viva/internal/obs"
	"viva/internal/trace"
	"viva/internal/wire"
)

// Source produces the live trace operations the publisher applies. Run
// emits ops until the source is exhausted (a replay finished, a followed
// file ended) or ctx is cancelled; emit blocks when the publisher's
// intake is full, which is the backpressure that keeps a fast source from
// outrunning bounded memory.
type Source interface {
	Run(ctx context.Context, emit func(Op) error) error
}

// Primer is an optional Source refinement: sources that know their
// resource catalog up front (a replay of a finished trace) declare it
// into the live trace before streaming starts, so the first full snapshot
// already carries the topology.
type Primer interface {
	Prime(tr *trace.Trace) error
}

// Config tunes the stream publisher. The zero value picks every default.
type Config struct {
	// Tick is the base publish interval (default 100ms). Load shedding
	// doubles the effective interval up to MaxTick while publish latency
	// crowds it, and halves back down on recovery.
	Tick    time.Duration
	MaxTick time.Duration // default 2s

	// Admission and fan-out sizing, passed through to the hub.
	MaxSubscribers int // default 8192, 503 beyond it
	SubRing        int // per-subscriber snapshot ring (default 16)

	// FullEvery regenerates the full snapshot every n-th tick
	// (default 16, always within the resume window).
	FullEvery int
}

// The publisher's fixed sizes.
const (
	// windowSeconds is the Eq. 1 tail-window width in trace seconds.
	windowSeconds = 5.0
	// intakeOps bounds how many ops may queue between ticks; a source
	// that outruns it blocks in emit.
	intakeOps = 8192
	// resumeDeltas is how many deltas the hub keeps for Last-Event-ID
	// resume.
	resumeDeltas = 64
	// latencyWindow is how many recent ticks Report's latency
	// percentiles cover.
	latencyWindow = 1024
)

func (c Config) withDefaults() Config {
	if c.Tick <= 0 {
		c.Tick = 100 * time.Millisecond
	}
	if c.MaxTick < c.Tick {
		c.MaxTick = 2 * time.Second
		if c.MaxTick < c.Tick {
			c.MaxTick = c.Tick
		}
	}
	if c.FullEvery <= 0 {
		c.FullEvery = 16
	}
	return c
}

// Report summarises a finished (or running) publisher: tick and event
// throughput, publish-latency percentiles over the last latencyWindow
// ticks, and how often load shedding widened the interval.
type Report struct {
	Ticks    int
	Events   int
	Errors   int // ops the trace rejected (counted, never fatal)
	Sheds    int
	FinalSeq uint64
	P50      time.Duration
	P99      time.Duration
	Max      time.Duration
}

// Stream owns the live trace, the single publisher goroutine, and the
// hub its snapshots fan out through.
type Stream struct {
	Hub *Hub

	tr  *trace.Trace
	src Source
	cfg Config
	lw  *aggregation.LiveWindow

	// locker, when set, is held while the publisher mutates the live
	// trace and while onTick runs, which then invalidates the serving
	// side's derived caches: the lock and seam Bind installs.
	locker sync.Locker
	onTick func(seq uint64, now float64)

	mu     sync.Mutex // guards the report fields below
	ticks  int
	events int
	errs   int
	sheds  int
	// latencies is a ring of the last latencyWindow tick latencies, the
	// oldest at ticks % latencyWindow once it is full.
	latencies []time.Duration
	seq       uint64

	lastMean []float64 // per-series mean last emitted, for delta diffing

	// quiet keeps a stream over a SelfSource out of the process-wide
	// series: its hops stay out of the span fan-out it drains (they would
	// come back as ops of its next tick), and its ticks feed no
	// viva_stream_* metric and no SLO, which belong to the served stream.
	quiet bool

	lastPubNs  int64        // previous publish stamp (publisher-only)
	lastDumpNs atomic.Int64 // anomaly-dump rate limit
	started    atomic.Bool  // Run has begun (readiness probe)
}

// New builds a stream over src. If src is a Primer its catalog is
// declared into the live trace immediately, so the topology is queryable
// before Run starts.
func New(src Source, cfg Config) (*Stream, error) {
	cfg = cfg.withDefaults()
	tr := trace.New()
	if p, ok := src.(Primer); ok {
		if err := p.Prime(tr); err != nil {
			return nil, err
		}
	}
	_, quiet := src.(*SelfSource)
	s := &Stream{
		quiet: quiet,
		Hub:   NewHub(cfg.MaxSubscribers, cfg.SubRing, resumeDeltas),
		tr:    tr,
		src:   src,
		cfg:   cfg,
		lw:    aggregation.NewLiveWindow(tr, windowSeconds),
	}
	return s, nil
}

// Trace returns the live trace. Readers other than the publisher must
// hold the lock given to Bind while touching it.
func (s *Stream) Trace() *trace.Trace { return s.tr }

// Bind installs the reader-coordination hooks after construction — the
// server's lock and its per-tick cache invalidation — resolving the
// chicken-and-egg between stream.New (which owns the live trace) and the
// server/view built over that trace. Call before Run.
func (s *Stream) Bind(l sync.Locker, onTick func(seq uint64, now float64)) {
	s.locker = l
	s.onTick = onTick
}

// Started reports whether Run has begun. A drained publisher still
// counts as started: its hub keeps serving terminal state.
func (s *Stream) Started() bool { return s.started.Load() }

// Seq returns the last tick sequence number the publisher assigned.
func (s *Stream) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Report returns a snapshot of the publisher's counters and latency
// percentiles. Safe to call concurrently with Run.
func (s *Stream) Report() Report {
	s.mu.Lock()
	r := Report{
		Ticks: s.ticks, Events: s.events, Errors: s.errs,
		Sheds: s.sheds, FinalSeq: s.seq,
	}
	sorted := slices.Clone(s.latencies)
	s.mu.Unlock()
	if n := len(sorted); n > 0 {
		slices.Sort(sorted)
		r.P50 = sorted[n/2]
		r.P99 = sorted[(n*99)/100]
		r.Max = sorted[n-1]
	}
	return r
}

// seriesStat is one aggregated (resource, metric) window result.
type seriesStat struct {
	Resource, Metric string
	Integral, Mean   float64
}

// frameHead is the part of a snapshot every frame carries.
type frameHead struct {
	seq    uint64
	time   float64
	window [2]float64
	events int
}

// catalog is the topology a full snapshot carries, copied under the
// publisher's lock.
type catalog struct {
	resources []*trace.Resource
	edges     []trace.Edge
}

// encodeFrame appends one snapshot's JSON payload (see package wire).
// Deltas (cat nil) carry only the series whose window aggregate changed
// this tick; full frames carry the catalog and every series:
//
//	{"seq":n,"time":t,"window":[a,b],"events":n,"full":true,"resources":[…],"edges":[[a,b],…],"series":[…]}
//
// full and an empty resources or edges list are left out; an empty series
// list is null.
func encodeFrame(buf []byte, h frameHead, cat *catalog, series []seriesStat) ([]byte, error) {
	e := wire.NewEncoder(buf)
	e.Raw(`{"seq":`).Uint(h.seq)
	e.Raw(`,"time":`).Float(h.time)
	e.Raw(`,"window":`).Pair(h.window[0], h.window[1])
	e.Raw(`,"events":`).Int(h.events)
	if cat != nil {
		e.Raw(`,"full":true`)
		if len(cat.resources) > 0 {
			e.Raw(`,"resources":[`)
			for i, r := range cat.resources {
				if i > 0 {
					e.Raw(",")
				}
				e.Raw(`{"name":`).String(r.Name)
				e.Raw(`,"type":`).String(r.Type)
				if r.Parent != "" {
					e.Raw(`,"parent":`).String(r.Parent)
				}
				e.Raw("}")
			}
			e.Raw("]")
		}
		if len(cat.edges) > 0 {
			e.Raw(`,"edges":[`)
			for i, ed := range cat.edges {
				if i > 0 {
					e.Raw(",")
				}
				e.Raw("[").String(ed.A)
				e.Raw(",").String(ed.B)
				e.Raw("]")
			}
			e.Raw("]")
		}
	}
	e.Raw(`,"series":`)
	if len(series) == 0 {
		e.Raw("null}")
		return e.Bytes()
	}
	e.Raw("[")
	for i, st := range series {
		if i > 0 {
			e.Raw(",")
		}
		e.Raw(`{"resource":`).String(st.Resource)
		e.Raw(`,"metric":`).String(st.Metric)
		e.Raw(`,"integral":`).Float(st.Integral)
		e.Raw(`,"mean":`).Float(st.Mean)
		e.Raw("}")
	}
	e.Raw("]}")
	return e.Bytes()
}

// Run drives the publisher until the source drains or ctx is cancelled.
// It applies ops in per-tick batches under the Bind lock, advances the
// incremental window aggregation, encodes one delta snapshot per tick
// (plus a periodic full snapshot), and publishes through the hub. It
// never blocks on a subscriber. On a clean drain it publishes a final
// full snapshot and returns nil with the hub still open, so late clients
// keep receiving the terminal state; closing the hub is the owner's call
// (the server does it on shutdown).
func (s *Stream) Run(ctx context.Context) error {
	s.started.Store(true)
	ops := make(chan Op, intakeOps)
	runErr := make(chan error, 1)
	go func() {
		defer close(ops)
		runErr <- s.src.Run(ctx, func(op Op) error {
			select {
			case ops <- op:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}()

	tick := s.cfg.Tick
	s.setTickGauge(tick)
	timer := time.NewTimer(tick)
	defer timer.Stop()

	var (
		pending   []Op
		firstOpNs int64   // intake stamp of the oldest pending op
		ewma      float64 // publish latency, seconds
		drained   bool
	)
	for {
		// Stop pulling from the intake while a full batch waits: the
		// channel buffer then exerts backpressure on the source instead
		// of this loop growing without bound.
		in := ops
		if drained || len(pending) >= intakeOps {
			in = nil
		}
		select {
		case <-ctx.Done():
			<-runErr
			return ctx.Err()
		case op, ok := <-in:
			if !ok {
				drained = true
				continue
			}
			if len(pending) == 0 {
				firstOpNs = obs.NowNs()
			}
			pending = append(pending, op)
		case <-timer.C:
			// A closed intake is only observed once its buffer is empty,
			// so drained means this batch is the last one.
			d := s.tick(pending, drained, firstOpNs)
			pending = pending[:0]
			firstOpNs = 0
			if drained {
				// The final tick published a full snapshot; the hub
				// stays open serving terminal state. Surface the
				// source's own error if it had one.
				return <-runErr
			}
			// Load shedding: widen the interval while publish latency
			// crowds it, narrow back once pressure clears.
			ewma = 0.8*ewma + 0.2*d.Seconds()
			switch {
			case ewma > tick.Seconds()/2 && tick < s.cfg.MaxTick:
				tick *= 2
				if tick > s.cfg.MaxTick {
					tick = s.cfg.MaxTick
				}
				s.mu.Lock()
				s.sheds++
				s.mu.Unlock()
				if !s.quiet {
					obsShed.Inc()
				}
				s.setTickGauge(tick)
				obs.Flight.Record(obs.FlightShed, s.Seq(), int64(tick), 0)
				slog.Debug("stream: shed, tick widened", "seq", s.Seq(), "tick", tick)
			case ewma < tick.Seconds()/8 && tick > s.cfg.Tick:
				tick /= 2
				if tick < s.cfg.Tick {
					tick = s.cfg.Tick
				}
				s.setTickGauge(tick)
				obs.Flight.Record(obs.FlightNarrow, s.Seq(), int64(tick), 0)
				slog.Debug("stream: recovered, tick narrowed", "seq", s.Seq(), "tick", tick)
			}
			timer.Reset(tick)
		}
	}
}

// setTickGauge publishes the current tick interval, unless the stream
// is quiet.
func (s *Stream) setTickGauge(tick time.Duration) {
	if !s.quiet {
		obsTick.Set(tick.Seconds())
	}
}

// tick applies one batch of ops and publishes one delta snapshot (and,
// periodically or when final, a full one). It returns the publish
// latency the shedding loop feeds on. firstOpNs, when nonzero, is the
// intake stamp of the batch's oldest op — the source→tick hop.
//
// Each stage boundary hands the time since the previous one to the span
// fan-out (obs.Ring.Emit: stage histogram, meta-trace, live span feed),
// so one tick decomposes the same way an interactive frame does, without
// landing in one. A quiet stream (over a SelfSource) hands nothing, as it
// drains that fan-out, and records no metric or SLO observation.
func (s *Stream) tick(batch []Op, final bool, firstOpNs int64) time.Duration {
	start := obs.NowNs()
	if len(batch) > 0 && firstOpNs > 0 && !s.quiet {
		obs.Frames.Emit(obs.StageIntake, start-firstOpNs)
	}
	mark := start
	hop := func(stage obs.StageID) {
		now := obs.NowNs()
		if !s.quiet {
			obs.Frames.Emit(stage, now-mark)
		}
		mark = now
	}

	if s.locker != nil {
		s.locker.Lock()
	}
	app := s.tr.NewAppender()
	applied, errs := 0, 0
	for _, op := range batch {
		if err := app.Apply(op); err != nil {
			errs++
			continue
		}
		applied++
	}
	if !s.quiet {
		obsEvents.Add(uint64(applied))
	}
	hop(obs.StageApply)

	s.mu.Lock()
	s.ticks++
	s.events += applied
	s.errs += errs
	s.seq++
	seq := s.seq
	ticks := s.ticks
	s.mu.Unlock()

	_, now := s.tr.Window()
	full := final || (ticks-1)%s.cfg.FullEvery == 0 // the first tick seeds a full
	head := frameHead{seq: seq, time: now, window: [2]float64{now - windowSeconds, now}, events: applied}
	var cat *catalog
	if full {
		cat = &catalog{resources: s.tr.Resources(), edges: s.tr.Edges()}
	}

	var delta, all []seriesStat
	i := 0
	s.lw.Advance(now, func(resource, metric string, integral, mean float64) {
		stat := seriesStat{resource, metric, integral, mean}
		if i == len(s.lastMean) {
			// Newly discovered series: always in the delta.
			s.lastMean = append(s.lastMean, mean)
			delta = append(delta, stat)
		} else if s.lastMean[i] != mean {
			s.lastMean[i] = mean
			delta = append(delta, stat)
		}
		if full {
			all = append(all, stat)
		}
		i++
	})

	if s.onTick != nil {
		s.onTick(seq, now)
	}
	if s.locker != nil {
		s.locker.Unlock()
	}
	hop(obs.StageWindow)

	// Encode once, outside the lock: every subscriber shares these bytes.
	data, err := encode(head, nil, delta)
	var fdata []byte
	if full {
		fdata, _ = encode(head, cat, all)
	}
	hop(obs.StageEncode)

	pubNs := obs.NowNs()
	if err == nil {
		s.Hub.Publish(&Snapshot{Seq: seq, Time: now, Data: data, PubNs: pubNs})
	}
	if full && fdata != nil {
		s.Hub.SetFull(&Snapshot{Seq: seq, Time: now, Full: true, Data: fdata, PubNs: pubNs})
	}
	hop(obs.StageFanout)

	d := time.Duration(obs.NowNs() - start)
	if !s.quiet {
		s.observe(seq, pubNs, d, err == nil, full && fdata != nil)
	}
	s.record(d)
	return d
}

// record keeps the latency of the tick just counted in the latency ring.
func (s *Stream) record(d time.Duration) {
	s.mu.Lock()
	if len(s.latencies) < latencyWindow {
		s.latencies = append(s.latencies, d)
	} else {
		s.latencies[(s.ticks-1)%latencyWindow] = d
	}
	s.mu.Unlock()
}

// observe records one published tick in the viva_stream_* series and the
// SLOs: the snapshots published, the staleness gap since the previous
// publish and the tick's publish latency d.
func (s *Stream) observe(seq uint64, pubNs int64, d time.Duration, delta, full bool) {
	if delta {
		obsSnapshots.Inc()
	}
	if full {
		obsFulls.Inc()
	}
	// Staleness: the gap between consecutive publishes is the age the
	// freshest client-visible data had just before this tick replaced it.
	if s.lastPubNs != 0 {
		gap := float64(pubNs-s.lastPubNs) / 1e9
		obsStaleness.Observe(gap)
		sloStale.Observe(gap)
	}
	s.lastPubNs = pubNs
	obsPublish.Observe(d.Seconds())
	if sloPush.Observe(d.Seconds()) {
		s.maybeAnomalyDump(seq)
	}
}

// framePool holds encode buffers between ticks, as encoding/json pools
// its own: a buffer grown to the largest frame is reused while the
// stream runs and released by the GC when it idles.
var framePool sync.Pool // of *[]byte

// encode encodes one frame in a pooled buffer and returns an exact-size
// copy. The hub keeps the last resumeDeltas deltas and the subscriber
// rings hold more, so spare capacity on each payload would stay resident
// many times over.
func encode(h frameHead, cat *catalog, series []seriesStat) ([]byte, error) {
	bp, _ := framePool.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	defer framePool.Put(bp)
	b, err := encodeFrame((*bp)[:0], h, cat, series)
	if err != nil {
		return nil, err
	}
	*bp = b
	return bytes.Clone(b), nil
}

// anomalyTicks is how many consecutive over-SLO publishes trip the
// automatic flight-recorder dump; anomalyDumpGap rate-limits the dumps.
const (
	anomalyTicks   = 8
	anomalyDumpGap = 30 * time.Second
)

// maybeAnomalyDump fires once per sustained breach run: when the push
// SLO has been over target for anomalyTicks consecutive ticks, a flight
// event marks the anomaly and the ring is dumped to the log, rate
// limited so a long incident produces one dump per gap, not one per
// tick.
func (s *Stream) maybeAnomalyDump(seq uint64) {
	if sloPush.ConsecBreaches() != anomalyTicks {
		return
	}
	obs.Flight.Record(obs.FlightAnomaly, seq, int64(anomalyTicks), 0)
	last := s.lastDumpNs.Load()
	now := obs.NowNs()
	if now-last < int64(anomalyDumpGap) || !s.lastDumpNs.CompareAndSwap(last, now) {
		return
	}
	slog.Warn("stream: push SLO breached, dumping flight recorder",
		"seq", seq, "consecutive_ticks", anomalyTicks, "burn_rate", sloPush.BurnRate())
	var b strings.Builder
	_ = obs.Flight.WriteText(&b)
	slog.Warn("stream: flight recorder dump", "seq", seq, "dump", b.String())
}
