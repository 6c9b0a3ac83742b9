// Command vivaserve opens a trace in the interactive browser UI: the
// topology-based view with live force-directed layout, time-slice
// selection, aggregation/disaggregation and parameter sliders.
//
// Usage:
//
//	vivaserve -trace trace.viva [-addr :8844] [-pprof] [-track-allocs]
//	          [-selftrace self.paje] [-obs]
//	vivaserve -store trace.vvc [-store-cache bytes] [...]
//	vivaserve -trace trace.viva -live [-live-rate 10] [...]
//	vivaserve -follow growing.viva [...]
//
// With -live the trace is replayed as a live stream instead of served
// frozen: a publisher goroutine re-applies its events in time order and
// GET /api/stream broadcasts per-tick delta snapshots over SSE, with
// Last-Event-ID resume, drop-to-latest backpressure and admission
// control. -follow does the same while tailing a native trace file that
// another process is still writing.
//
// With -store the server reads a compacted columnar store (see `viva
// compact`) instead of materializing the trace: windowed queries are
// answered from precomputed per-chunk prefix sums and only boundary
// chunks are decoded, through a byte-bounded LRU cache, so resident
// heap stays O(cache size) regardless of trace size.
//
// Then open http://localhost:8844 in a browser. The server observes
// itself: every pipeline stage span — request-path stages, live hops and
// whole frames — lands in a viva_stage_seconds{stage=...} histogram on
// GET /metrics, and GET /api/obs/frames serves the per-stage
// frame-timing ring; -pprof additionally mounts /debug/pprof/. With
// -selftrace the same spans are also written as a Paje trace, so `viva
// -trace self.paje` visualizes this very server's execution, and
// -selfstream serves them live on /api/stream/self.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"viva/internal/core"
	"viva/internal/ingest"
	"viva/internal/obs"
	"viva/internal/server"
	"viva/internal/store"
	"viva/internal/stream"
	"viva/internal/traceio"
)

func main() {
	tracePath := flag.String("trace", "", "input trace file (required unless -store)")
	storePath := flag.String("store", "", "serve from a compacted columnar store (.vvc) instead of -trace")
	storeCache := flag.Int64("store-cache", store.DefaultCacheBytes, "chunk cache budget in bytes for -store")
	addr := flag.String("addr", ":8844", "listen address")
	level := flag.Int("level", -1, "initial aggregation depth (-1: leaves)")
	edges := flag.String("edges", "", "connection configuration file for traces without topology edges")
	parallel := flag.Int("parallel", 0, "worker goroutines for trace ingestion, the layout step and the aggregation graph build (0: GOMAXPROCS, 1: serial; same output either way)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	trackAllocs := flag.Bool("track-allocs", false, "record per-stage heap-alloc deltas in the frame ring: the process-wide /gc/heap/allocs:bytes counter across each span, so concurrent work (live ticks, other requests) counts toward the stage (small per-span cost)")
	selftrace := flag.String("selftrace", "", "write the pipeline's own spans as a Paje trace to this file")
	obsDump := flag.Bool("obs", false, "print an observability summary to stderr on exit")
	live := flag.Bool("live", false, "replay -trace as a live stream on /api/stream instead of serving it frozen")
	liveRate := flag.Float64("live-rate", 10, "replay speed for -live, in trace-seconds per wall-second (<= 0: unpaced)")
	followPath := flag.String("follow", "", "tail a growing native trace file as the live stream source (instead of -trace/-store)")
	streamTick := flag.Duration("stream-tick", 100*time.Millisecond, "base snapshot publish interval for the live stream")
	streamMax := flag.Int("stream-max", 8192, "max concurrent /api/stream subscribers (503 + Retry-After beyond)")
	selfStream := flag.Bool("selfstream", false, "serve the pipeline's own stage spans as a live meta-trace on /api/stream/self")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	flag.Parse()

	if _, err := obs.SetupSlog(os.Stderr, *logLevel); err != nil {
		fatal(err)
	}

	if *followPath != "" {
		if *tracePath != "" || *storePath != "" || *live {
			fatal(fmt.Errorf("-follow replaces -trace/-store/-live"))
		}
	} else if (*tracePath == "") == (*storePath == "") {
		flag.Usage()
		os.Exit(2)
	}
	if *live && *tracePath == "" {
		fatal(fmt.Errorf("-live needs -trace (replay a finished trace live)"))
	}
	// The self-trace is attached before the trace loads, so the ingest
	// span of the load itself is part of the meta-trace.
	obs.Frames.TrackAllocs(*trackAllocs)
	if *selftrace != "" {
		st, err := obs.StartSelfTrace(*selftrace)
		if err != nil {
			fatal(err)
		}
		obs.Frames.Attach(st)
		defer func() {
			obs.Frames.Detach(st)
			if err := st.Close(); err != nil {
				slog.Error("vivaserve: selftrace close failed", "err", err)
			}
		}()
	}
	var v *core.View
	var st *stream.Stream
	served := *tracePath
	if *followPath != "" {
		var err error
		st, err = stream.New(stream.NewFollow(*followPath),
			stream.Config{Tick: *streamTick, MaxSubscribers: *streamMax})
		if err != nil {
			fatal(err)
		}
		served = *followPath + " (live follow)"
		if v, err = core.NewView(st.Trace()); err != nil {
			fatal(err)
		}
	} else if *storePath != "" {
		if *edges != "" {
			fatal(fmt.Errorf("-edges needs a heap trace; bake edges in before `viva compact` or use -trace"))
		}
		st, err := store.OpenWith(*storePath, store.OpenOptions{CacheBytes: *storeCache})
		if err != nil {
			fatal(err)
		}
		defer st.Close()
		served = *storePath
		if v, err = core.NewViewOf(st); err != nil {
			fatal(err)
		}
	} else {
		tr := traceio.MustLoadWith(*tracePath, ingest.Options{Parallelism: *parallel})
		if *edges != "" {
			if _, err := traceio.LoadEdges(*edges, tr); err != nil {
				fatal(err)
			}
		}
		var err error
		if *live {
			// The cold trace becomes the replay source; the view watches
			// the stream's own live trace grow instead.
			st, err = stream.New(stream.NewReplay(tr, *liveRate),
				stream.Config{Tick: *streamTick, MaxSubscribers: *streamMax})
			if err != nil {
				fatal(err)
			}
			served += " (live replay)"
			v, err = core.NewView(st.Trace())
		} else {
			v, err = core.NewView(tr)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *level >= 0 {
		if err := v.SetLevel(*level); err != nil {
			fatal(err)
		}
	}
	v.SetParallelism(*parallel)
	// Settle the layout once before serving, so the first frames arrive
	// settled instead of mid-flight, at the view's own bound (0.1 render
	// px): polls step a settled view no further, so this is the motion
	// the served picture is left with.
	mls := v.StabilizeMultilevel(0)
	slog.Info("vivaserve: multilevel pre-layout",
		"levels", len(mls.Levels), "steps", mls.TotalSteps, "residual", mls.Residual)
	url := *addr
	if strings.HasPrefix(url, ":") {
		url = "localhost" + url
	}
	fmt.Printf("serving %s on http://%s\n", served, url)
	// SIGINT/SIGTERM trigger a graceful shutdown: in-flight requests are
	// drained before the process exits.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// SIGQUIT dumps the flight recorder to the log (and keeps running):
	// the black-box pull for a live process that seems wedged.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	go func() {
		for range quitCh {
			slog.Warn("vivaserve: SIGQUIT, dumping flight recorder")
			_ = obs.Flight.WriteText(os.Stderr)
		}
	}()
	srv := server.New(v)
	srv.EnablePprof = *pprofOn
	if st != nil {
		srv.SetStream(st)
		st.Bind(srv.Locker(), func(uint64, float64) { v.RefreshSource() })
		go func() {
			if err := st.Run(ctx); err != nil && ctx.Err() == nil {
				slog.Error("vivaserve: stream publisher failed", "err", err)
			}
		}()
	}
	if *selfStream {
		// The span feed turns every pipeline stage span into a live trace
		// op; a second publisher streams it on /api/stream/self.
		feed := obs.NewSpanFeed(4096)
		obs.Frames.Attach(feed)
		selfSt, err := stream.New(stream.NewSelfSource(feed),
			stream.Config{Tick: *streamTick, MaxSubscribers: *streamMax})
		if err != nil {
			fatal(err)
		}
		srv.SetSelfStream(selfSt)
		go func() {
			if err := selfSt.Run(ctx); err != nil && ctx.Err() == nil {
				slog.Error("vivaserve: selfstream publisher failed", "err", err)
			}
		}()
	}
	if err := srv.Run(ctx, *addr); err != nil {
		fatal(err)
	}
	if *obsDump {
		fmt.Fprintln(os.Stderr, "vivaserve: observability summary:")
		_ = obs.Default.WriteSummary(os.Stderr)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vivaserve:", err)
	os.Exit(1)
}
