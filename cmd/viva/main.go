// Command viva is the headless companion of the visualization: it loads a
// trace, applies spatial and temporal aggregation, runs the force-directed
// layout to convergence, and writes an SVG of the topology-based view —
// or, with -info, prints a textual summary of the trace.
//
// Usage:
//
//	viva -trace trace.viva [-level n] [-slice a:b] [-o view.svg] [-info]
//	     [-aggregate group,group,...] [-steps n]
//	     [-gantt gantt.svg] [-treemap treemap.svg]
//	viva compact [-chunk n] [-parallel n] <trace> <out.vvc>
//
// -gantt and -treemap additionally render the classical baseline views
// (behavioural timeline; hierarchically aggregated treemap) from the same
// trace and slice.
//
// The compact subcommand rewrites a trace (native, gzipped or Paje) into
// the columnar .vvc store format: per-variable chunked columns with
// precomputed prefix sums, so windowed queries read only boundary chunks.
// Both -trace here and vivaserve -store accept .vvc files directly.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strings"

	"viva/internal/aggregation"
	"viva/internal/core"
	"viva/internal/gantt"
	"viva/internal/ingest"
	"viva/internal/obs"
	"viva/internal/render"
	"viva/internal/store"
	"viva/internal/trace"
	"viva/internal/traceio"
	"viva/internal/treemap"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compact" {
		runCompact(os.Args[2:])
		return
	}
	tracePath := flag.String("trace", "", "input trace file (required)")
	level := flag.Int("level", -1, "aggregate to this hierarchy depth (-1: leaves)")
	slice := flag.String("slice", "", "time slice as start:end (default: whole window)")
	aggregate := flag.String("aggregate", "", "comma-separated groups to aggregate")
	out := flag.String("o", "view.svg", "output SVG file")
	info := flag.Bool("info", false, "print a trace summary instead of rendering")
	steps := flag.Int("steps", 3000, "maximum layout iterations at full graph size (the multilevel cold start's finest-level budget)")
	parallel := flag.Int("parallel", 0, "worker goroutines for trace ingestion and the layout step (0: GOMAXPROCS, 1: serial; same output either way)")
	ganttOut := flag.String("gantt", "", "also render a Gantt timeline of process states to this file")
	treemapOut := flag.String("treemap", "", "also render a host-utilization treemap to this file")
	edges := flag.String("edges", "", "connection configuration file (one \"a b\" pair per line), for traces without topology edges")
	animate := flag.Int("animate", 0, "render an N-frame animated SVG sweeping the window (to -o)")
	animDur := flag.Float64("animdur", 1, "seconds per animation frame")
	obsDump := flag.Bool("obs", false, "print an observability summary to stderr on exit")
	selftrace := flag.String("selftrace", "", "write this run's pipeline spans as a Paje trace to this file")
	logLevel := flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
	flag.Parse()

	if _, err := obs.SetupSlog(os.Stderr, *logLevel); err != nil {
		fatal(err)
	}
	if *obsDump {
		defer func() {
			fmt.Fprintln(os.Stderr, "viva: observability summary:")
			_ = obs.Default.WriteSummary(os.Stderr)
		}()
	}
	if *selftrace != "" {
		st, err := obs.StartSelfTrace(*selftrace)
		if err != nil {
			fatal(err)
		}
		obs.Frames.Attach(st)
		defer func() {
			obs.Frames.Detach(st)
			if err := st.Close(); err != nil {
				slog.Error("viva: selftrace close failed", "err", err)
			}
		}()
	}

	if *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}
	tr := traceio.MustLoadWith(*tracePath, ingest.Options{Parallelism: *parallel})
	if *edges != "" {
		n, err := traceio.LoadEdges(*edges, tr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("loaded %d edges from %s\n", n, *edges)
	}

	if *info {
		printInfo(tr)
		return
	}

	v, err := core.NewView(tr)
	if err != nil {
		fatal(err)
	}
	v.SetParallelism(*parallel)
	if *level >= 0 {
		if err := v.SetLevel(*level); err != nil {
			fatal(err)
		}
	}
	for _, g := range splitList(*aggregate) {
		if err := v.Aggregate(g); err != nil {
			fatal(err)
		}
	}
	if *slice != "" {
		var a, b float64
		if _, err := fmt.Sscanf(*slice, "%f:%f", &a, &b); err != nil {
			fatal(fmt.Errorf("bad -slice %q: %v", *slice, err))
		}
		if err := v.SetTimeSlice(a, b); err != nil {
			fatal(err)
		}
	}
	iters := v.Stabilize(*steps, 0.1)

	if *animate > 1 {
		// Animated sweep: the window split into N slices, one frame each.
		start, end := tr.Window()
		anim := render.NewAnimation(render.DefaultOptions(), *animDur)
		width := (end - start) / float64(*animate)
		for i := 0; i < *animate; i++ {
			a := start + float64(i)*width
			if err := v.SetTimeSlice(a, a+width); err != nil {
				fatal(err)
			}
			anim.AddFrame(v.MustGraph(), v.Layout(),
				fmt.Sprintf("%s — slice [%.2f, %.2f]", *tracePath, a, a+width))
		}
		if err := os.WriteFile(*out, anim.Render(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%d frames, layout settled in %d steps -> %s\n", *animate, iters, *out)
		return
	}

	g := v.MustGraph()
	opts := render.DefaultOptions()
	opts.Title = fmt.Sprintf("%s — slice [%.2f, %.2f]", *tracePath, v.TimeSlice().Start, v.TimeSlice().End)
	if err := os.WriteFile(*out, render.SVG(g, v.Layout(), opts), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("%d nodes, %d edges, layout settled in %d steps -> %s\n",
		len(g.Nodes), len(g.Edges), iters, *out)

	slice2 := v.TimeSlice()
	if *ganttOut != "" {
		procs := tr.StatefulResources()
		if len(procs) == 0 {
			fatal(fmt.Errorf("-gantt: trace carries no process states (simulate with state tracing on)"))
		}
		gOpts := gantt.DefaultOptions()
		gOpts.Title = fmt.Sprintf("%s — states over [%.2f, %.2f]", *tracePath, slice2.Start, slice2.End)
		if err := os.WriteFile(*ganttOut, gantt.SVG(tr, procs, slice2.Start, slice2.End, gOpts), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("%d process rows -> %s\n", len(procs), *ganttOut)
	}
	if *treemapOut != "" {
		roots := tr.Roots()
		if len(roots) == 0 {
			fatal(fmt.Errorf("-treemap: empty trace"))
		}
		root, err := treemap.Build(v.Aggregator(), roots[0], trace.TypeHost,
			trace.MetricPower, trace.MetricUsage,
			aggregation.TimeSlice{Start: slice2.Start, End: slice2.End})
		if err != nil {
			fatal(err)
		}
		tOpts := treemap.SVGOptions{Title: fmt.Sprintf("%s — treemap over [%.2f, %.2f]", *tracePath, slice2.Start, slice2.End)}
		if err := os.WriteFile(*treemapOut, treemap.SVG(root, tOpts), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("treemap ->", *treemapOut)
	}
}

// runCompact implements `viva compact <trace> <out.vvc>`: it streams the
// input through the ingest scanner into a columnar store writer without
// materializing the trace (falling back to a heap pass only for inputs
// the streaming path cannot handle, e.g. out-of-order or Paje traces).
func runCompact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	chunk := fs.Int("chunk", store.DefaultChunkPoints, "points per column chunk")
	parallel := fs.Int("parallel", 0, "worker goroutines for fallback ingestion (0: GOMAXPROCS)")
	obsDump := fs.Bool("obs", false, "print an observability summary to stderr on exit")
	logLevel := fs.String("log-level", "info", "log verbosity: debug, info, warn or error")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: viva compact [-chunk n] [-parallel n] <trace> <out.vvc>")
		fs.PrintDefaults()
	}
	_ = fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	if _, err := obs.SetupSlog(os.Stderr, *logLevel); err != nil {
		fatal(err)
	}
	src, dst := fs.Arg(0), fs.Arg(1)
	err := store.CompactFile(src, dst,
		ingest.Options{Parallelism: *parallel},
		store.WriterOptions{ChunkPoints: *chunk})
	if err != nil {
		fatal(err)
	}
	if si, e1 := os.Stat(src); e1 == nil {
		if di, e2 := os.Stat(dst); e2 == nil && si.Size() > 0 {
			fmt.Printf("compacted %s (%d bytes) -> %s (%d bytes, %.1f%%)\n",
				src, si.Size(), dst, di.Size(), 100*float64(di.Size())/float64(si.Size()))
		}
	}
	if *obsDump {
		fmt.Fprintln(os.Stderr, "viva: observability summary:")
		_ = obs.Default.WriteSummary(os.Stderr)
	}
}

func printInfo(tr *trace.Trace) {
	start, end := tr.Window()
	fmt.Printf("window:    [%g, %g]\n", start, end)
	fmt.Printf("resources: %d (%d hosts, %d links)\n",
		len(tr.Resources()), len(tr.ResourcesOfType(trace.TypeHost)), len(tr.ResourcesOfType(trace.TypeLink)))
	fmt.Printf("edges:     %d\n", len(tr.Edges()))
	fmt.Printf("variables: %d\n", tr.NumVariables())
	fmt.Printf("metrics:   %s\n", strings.Join(tr.Metrics(), ", "))
	fmt.Printf("roots:     %s\n", strings.Join(tr.Roots(), ", "))
	if procs := tr.StatefulResources(); len(procs) > 0 {
		fmt.Printf("processes: %d with states (%s)\n", len(procs), strings.Join(tr.StateValues(), ", "))
	}
	printTop(tr, "busiest hosts", trace.TypeHost, trace.MetricUsage, trace.MetricPower, start, end)
	printTop(tr, "busiest links", trace.TypeLink, trace.MetricTraffic, trace.MetricBandwidth, start, end)
}

// printTop lists the five most utilized resources of a type over the
// whole window.
func printTop(tr *trace.Trace, title, typ, useMetric, capMetric string, start, end float64) {
	type entry struct {
		name string
		util float64
	}
	var entries []entry
	for _, r := range tr.ResourcesOfType(typ) {
		capacity := tr.Timeline(r.Name, capMetric).Mean(start, end)
		if capacity <= 0 {
			continue
		}
		use := tr.Timeline(r.Name, useMetric).Mean(start, end)
		entries = append(entries, entry{r.Name, use / capacity})
	}
	if len(entries) == 0 {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].util != entries[j].util {
			return entries[i].util > entries[j].util
		}
		return entries[i].name < entries[j].name
	})
	fmt.Printf("%s:\n", title)
	for i, e := range entries {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-24s %5.1f%%\n", e.name, 100*e.util)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	slog.Error("viva: fatal", "err", err)
	os.Exit(1)
}
