// Benchmarks backing the paper's evaluation: one benchmark per figure
// regenerates (or exercises the machinery behind) the corresponding
// result, plus the layout-scalability series that motivates the Barnes-Hut
// choice. Run with:
//
//	go test -bench=. -benchmem
package viva_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"viva/internal/aggregation"
	"viva/internal/core"
	"viva/internal/experiments"
	"viva/internal/fault"
	"viva/internal/gantt"
	"viva/internal/layout"
	"viva/internal/masterworker"
	"viva/internal/nasdt"
	"viva/internal/platform"
	"viva/internal/server"
	"viva/internal/sim"
	"viva/internal/trace"
	"viva/internal/treemap"
	"viva/internal/vizgraph"
)

// fig1Trace builds the didactic two-host trace used by Figures 1-4.
func fig1Trace(b *testing.B) *trace.Trace {
	b.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	tr.MustDeclareResource("HostA", trace.TypeHost, "root")
	tr.MustDeclareResource("HostB", trace.TypeHost, "root")
	tr.MustDeclareResource("LinkA", trace.TypeLink, "root")
	for _, e := range []struct {
		t float64
		r string
		m string
		v float64
	}{
		{0, "HostA", trace.MetricPower, 100}, {10, "HostA", trace.MetricPower, 10},
		{0, "HostB", trace.MetricPower, 25}, {10, "HostB", trace.MetricPower, 40},
		{0, "LinkA", trace.MetricBandwidth, 10000},
		{0, "HostA", trace.MetricUsage, 50}, {0, "HostB", trace.MetricUsage, 25},
		{0, "LinkA", trace.MetricTraffic, 2500},
	} {
		if err := tr.Set(e.t, e.r, e.m, e.v); err != nil {
			b.Fatal(err)
		}
	}
	tr.MustDeclareEdge("HostA", "LinkA")
	tr.MustDeclareEdge("LinkA", "HostB")
	tr.SetEnd(20)
	return tr
}

// BenchmarkFig1Mapping measures building the visual graph from a trace:
// the metric-to-shape mapping of Figure 1.
func BenchmarkFig1Mapping(b *testing.B) {
	tr := fig1Trace(b)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		b.Fatal(err)
	}
	cut := aggregation.NewLeafCut(ag.Tree())
	m := vizgraph.DefaultMapping()
	slice := aggregation.TimeSlice{Start: 0, End: 10}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vizgraph.Build(ag, cut, m, slice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2TemporalAggregation measures Equation 1's temporal half:
// exact integration of a long piecewise-constant timeline.
func BenchmarkFig2TemporalAggregation(b *testing.B) {
	tl := &trace.Timeline{}
	for i := 0; i < 10000; i++ {
		tl.Set(float64(i), float64(i%17))
	}
	slice := aggregation.TimeSlice{Start: 1234.5, End: 8765.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		aggregation.TimeAggregate(tl, slice)
	}
}

// BenchmarkFig3SpatialAggregation measures Equation 1's spatial half on
// the full Grid'5000 hierarchy: aggregating every host of the platform.
func BenchmarkFig3SpatialAggregation(b *testing.B) {
	tr := trace.New()
	platform.Grid5000().DeclareInto(tr)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		b.Fatal(err)
	}
	slice := aggregation.TimeSlice{Start: 0, End: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ag.Stats("grid5000", trace.TypeHost, trace.MetricPower, slice); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4PerTypeScaling measures a full rebuild after a size-scale
// slider move.
func BenchmarkFig4PerTypeScaling(b *testing.B) {
	v, err := core.NewView(fig1Trace(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scale := 1.0 + float64(i%10)/10
		if err := v.SetScale(trace.TypeHost, scale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5ParameterStep measures one interactive layout step after a
// parameter change on a small star graph.
func BenchmarkFig5ParameterStep(b *testing.B) {
	l := layout.New(layout.DefaultParams())
	for i := 0; i < 7; i++ {
		if _, err := l.AddBodyAuto(fmt.Sprintf("n%d", i), 1); err != nil {
			b.Fatal(err)
		}
	}
	var springs []layout.Spring
	for i := 1; i < 7; i++ {
		springs = append(springs, layout.Spring{A: "n0", B: fmt.Sprintf("n%d", i), Strength: 1})
	}
	if err := l.SetSprings(springs); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Step(layout.Naive)
	}
}

func benchmarkDT(b *testing.B, locality bool) {
	p := platform.TwoClusters()
	g := nasdt.MustBuild(nasdt.WH, 'A')
	var hf []string
	if locality {
		hf = nasdt.LocalityHostfile(g, p.HostsOfCluster("adonis"), p.HostsOfCluster("griffon"))
	} else {
		hf = nasdt.SequentialHostfile(nasdt.ClusterHosts(p, "adonis", "griffon"), g.NumNodes())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(platform.TwoClusters(), nil)
		nasdt.Run(e, g, hf, nasdt.DefaultConfig())
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6NASDTSequential simulates the saturated sequential run.
func BenchmarkFig6NASDTSequential(b *testing.B) { benchmarkDT(b, false) }

// BenchmarkFig7NASDTLocality simulates the locality-aware run.
func BenchmarkFig7NASDTLocality(b *testing.B) { benchmarkDT(b, true) }

// BenchmarkEngineScaling runs the ring-allreduce workload on synthetic
// fabrics of 1k, 10k and 100k hosts. ns/op, allocs/op and events/sec
// cover Engine.Run alone; the set-up (platform build and actor spawns)
// runs with the timer stopped and is reported apart as setup-ns/op. Event
// count per host is constant by construction, so events/sec isolates the
// engine hot loop from the workload size.
func BenchmarkEngineScaling(b *testing.B) {
	for _, bc := range []struct {
		name  string
		hosts int
	}{
		{"hosts=1k", 1000},
		{"hosts=10k", 10000},
		{"hosts=100k", 100000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			events := 0
			var setup time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				t0 := time.Now()
				e := experiments.NewRingAllreduce(bc.hosts, experiments.RingAllreduceRounds)
				setup += time.Since(t0)
				b.StartTimer()
				if err := e.Run(); err != nil {
					b.Fatal(err)
				}
				events += e.Events
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
			b.ReportMetric(float64(setup.Nanoseconds())/float64(b.N), "setup-ns/op")
		})
	}
}

// gridTrace builds a Grid'5000 trace with a small master-worker workload
// once, shared by the Figure 8/9 benchmarks.
func gridTrace(b *testing.B) *trace.Trace {
	b.Helper()
	p := platform.Grid5000()
	tr := trace.New()
	e := sim.New(p, tr)
	e.TraceCategories(true)
	var hosts []string
	for _, h := range p.Hosts() {
		hosts = append(hosts, h.Name)
	}
	app := &masterworker.App{
		Name: "cpu", MasterHost: "adonis-1", Workers: hosts, TaskCount: 3000,
		TaskFlops: 40 * platform.GFlops, TaskBytes: 0.25 * platform.MB,
		ResultBytes: 10 * platform.KB, Strategy: masterworker.BandwidthCentric,
	}
	if _, err := masterworker.Deploy(e, app); err != nil {
		b.Fatal(err)
	}
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	return tr
}

// BenchmarkFig8AggregationLevels measures switching the 2170-host view
// across the four hierarchy levels (cut rebuild + graph rebuild + layout
// sync).
func BenchmarkFig8AggregationLevels(b *testing.B) {
	v, err := core.NewView(gridTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	levels := []int{3, 2, 1, 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.SetLevel(levels[i%len(levels)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9Animation measures one animation frame at the site scale:
// shifting the time slice and re-aggregating every metric.
func BenchmarkFig9Animation(b *testing.B) {
	v, err := core.NewView(gridTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := v.SetLevel(1); err != nil {
		b.Fatal(err)
	}
	_, end := v.Trace().Window()
	if err := v.SetTimeSlice(0, end/8); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := v.ShiftTimeSlice(end / 1000); err != nil {
			b.Fatal(err)
		}
		if _, err := v.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSliceScrub measures the Eq. 1 hot loop of interactive
// time-slice scrubbing: the slice sweeps back and forth over the window
// at the site scale of the 2170-host Grid'5000 trace, and the visual
// graph is rebuilt every frame (aggregation + mapping + layout sync).
// The 64 scrub positions repeat, so this is the repeated-slice workload
// the aggregation index and memoized member lists target.
func BenchmarkSliceScrub(b *testing.B) {
	v, err := core.NewView(gridTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	if err := v.SetLevel(1); err != nil {
		b.Fatal(err)
	}
	_, end := v.Trace().Window()
	width := end / 8
	step := end / 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := float64(i%64) * step
		if err := v.SetTimeSlice(pos, pos+width); err != nil {
			b.Fatal(err)
		}
		if _, err := v.Graph(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVizgraphBuild measures one full visual-graph build at the
// finest scale: every host and link of the Grid'5000 trace is its own
// node. This is the worst-case frame the interactivity claim rests on.
// "cold" evaluates a never-seen slice every iteration (the aggregation
// caches never hit); "revisit" cycles 4 slices with the per-view build
// cache, the steady state of interactive scrubbing.
func BenchmarkVizgraphBuild(b *testing.B) {
	tr := gridTrace(b)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		b.Fatal(err)
	}
	cut := aggregation.NewLeafCut(ag.Tree())
	m := vizgraph.DefaultMapping()
	_, end := tr.Window()

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A strictly new End each iteration defeats every result cache.
			slice := aggregation.TimeSlice{Start: 0, End: end * float64(i+1) / float64(b.N+i+1)}
			if _, err := vizgraph.Build(ag, cut, m, slice); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("revisit", func(b *testing.B) {
		cache := &vizgraph.BuildCache{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			slice := aggregation.TimeSlice{Start: 0, End: end * float64(1+i%4) / 4}
			if _, err := vizgraph.BuildOpts(ag, cut, m, slice, vizgraph.Options{Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeGraph measures one full /api/graph frame on the
// Grid'5000 leaf view (every host and link its own node), served through
// the HTTP handler: the graph rebuild for a new slice, then the JSON
// encode of every node, edge and layout body. The slice alternates
// between two values, so no iteration is served from the settled-payload
// cache; steps=0 keeps the layout out of the frame. The response goes to
// a writer that only counts bytes, so the numbers are the server's own.
func BenchmarkServeGraph(b *testing.B) {
	v, err := core.NewView(gridTrace(b))
	if err != nil {
		b.Fatal(err)
	}
	srv := server.New(v)
	h := srv.Handler()
	_, end := v.Trace().Window()
	req := httptest.NewRequest(http.MethodGet, "/api/graph?steps=0", nil)
	w := &countingWriter{header: http.Header{}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.Locker().Lock()
		err := v.SetTimeSlice(0, end*float64(1+i%2)/2)
		srv.Locker().Unlock()
		if err != nil {
			b.Fatal(err)
		}
		w.code, w.n = http.StatusOK, 0
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK || w.n == 0 {
			b.Fatalf("status %d, %d bytes", w.code, w.n)
		}
	}
	b.ReportMetric(float64(w.n), "body-bytes")
}

// countingWriter is an http.ResponseWriter that keeps only the status
// and the body length.
type countingWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *countingWriter) Header() http.Header         { return w.header }
func (w *countingWriter) WriteHeader(code int)        { w.code = code }
func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// buildLayout creates an n-body tree-shaped layout for the scalability
// series.
func buildLayout(b *testing.B, n int) *layout.Layout {
	b.Helper()
	l := layout.New(layout.DefaultParams())
	var springs []layout.Spring
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("n%d", i)
		if _, err := l.AddBodyAuto(id, 1); err != nil {
			b.Fatal(err)
		}
		if i > 0 {
			springs = append(springs, layout.Spring{A: fmt.Sprintf("n%d", (i-1)/4), B: id, Strength: 1})
		}
	}
	if err := l.SetSprings(springs); err != nil {
		b.Fatal(err)
	}
	return l
}

// BenchmarkLayoutNaive is the O(n²) baseline of the scalability table.
func BenchmarkLayoutNaive(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			l := buildLayout(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step(layout.Naive)
			}
		})
	}
}

// BenchmarkLayoutBarnesHut is the paper's O(n log n) choice, swept over
// size × worker count: p=1 is the serial baseline (the flat tree is
// reused, so allocs/op is zero after the first step), p=2 exercises the
// parallel tree build and sharded force passes. Output positions are
// identical at every p. More workers than the machine's CPUs measure
// nothing new, so the sweep stops at 2.
func BenchmarkLayoutBarnesHut(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 5000, 20000} {
		for _, par := range []int{1, 2} {
			if par > 1 && n < 1024 {
				continue // below the parallel grain: same code path as p=1
			}
			b.Run(fmt.Sprintf("n=%d/p=%d", n, par), func(b *testing.B) {
				l := buildLayout(b, n)
				p := l.Params()
				p.Parallelism = par
				l.SetParams(p)
				l.Step(layout.BarnesHut) // warm the tree
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.Step(layout.BarnesHut)
				}
			})
		}
	}
}

// treeParent exposes buildLayout's 4-ary tree to the multilevel
// coarsener: body n_i hangs under n_{(i-1)/4}; the root has no parent.
// Matching-produced super-bodies ("m:" prefix) fail the parse and fall
// back to heavy-edge matching, as intended.
func treeParent(id string) (string, bool) {
	var i int
	if _, err := fmt.Sscanf(id, "n%d", &i); err != nil || i == 0 {
		return "", false
	}
	return fmt.Sprintf("n%d", (i-1)/4), true
}

// flatConvergeCap bounds the flat baseline: past this many steps the run
// is declared stuck rather than slow.
const flatConvergeCap = 50000

// BenchmarkLayoutMultilevel measures the V-cycle end to end — coarsen,
// solve the coarsest level, interpolate, refine — from a cold seed,
// reporting wall-clock time-to-converged (ms-to-conv) and the total force
// steps spent across all levels. BenchmarkLayoutFlatConverge is the
// baseline at the same eps; the ratio of their ms-to-conv is the headline
// multilevel speedup.
func BenchmarkLayoutMultilevel(b *testing.B) {
	for _, n := range []int{5000, 20000, 100000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l := buildLayout(b, n)
				b.StartTimer()
				st := l.RunMultilevel(layout.MultilevelParams{Parent: treeParent})
				if !st.Converged {
					b.Fatalf("multilevel stuck at residual %g after %d steps", st.Residual, st.TotalSteps)
				}
				steps = st.TotalSteps
			}
			b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N), "ms-to-conv")
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkLayoutFlatConverge is the cold-start flat Barnes-Hut baseline
// of the multilevel series, run to the multilevel default eps so the two
// ms-to-conv columns are directly comparable. n=100000 is omitted: the
// flat engine needs tens of minutes there, which is the point.
func BenchmarkLayoutFlatConverge(b *testing.B) {
	eps := layout.DefaultMultilevelParams().Eps
	for _, n := range []int{5000, 20000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var steps int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				l := buildLayout(b, n)
				b.StartTimer()
				steps, _ = l.Run(layout.BarnesHut, flatConvergeCap, eps)
				if steps >= flatConvergeCap {
					b.Fatalf("flat layout stuck after %d steps", steps)
				}
			}
			b.ReportMetric(b.Elapsed().Seconds()*1000/float64(b.N), "ms-to-conv")
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkAggregateDisaggregate measures the interactive cut operations
// on the Grid'5000 hierarchy.
func BenchmarkAggregateDisaggregate(b *testing.B) {
	tr := trace.New()
	platform.Grid5000().DeclareInto(tr)
	tree := aggregation.MustBuildTree(tr)
	cut := aggregation.NewLeafCut(tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := cut.Aggregate("grenoble"); err != nil {
			b.Fatal(err)
		}
		if err := cut.Disaggregate("grenoble"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimMasterWorker measures the simulator on a small grid
// scenario end to end.
func BenchmarkSimMasterWorker(b *testing.B) {
	p := platform.New("g")
	p.AddSite("s1", platform.SiteConfig{BackboneBandwidth: 10 * platform.Gbps, UplinkBandwidth: 1 * platform.Gbps})
	p.AddCluster("s1", "c1", platform.ClusterConfig{
		Hosts: 16, HostPower: 1 * platform.GFlops,
		HostLinkBandwidth: 1 * platform.Gbps, BackboneBandwidth: 10 * platform.Gbps,
		UplinkBandwidth: 10 * platform.Gbps,
	})
	var hosts []string
	for _, h := range p.Hosts() {
		hosts = append(hosts, h.Name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := sim.New(p, nil)
		app := &masterworker.App{
			Name: "bench", MasterHost: "c1-1", Workers: hosts, TaskCount: 200,
			TaskFlops: 0.1 * platform.GFlops, TaskBytes: 0.5 * platform.MB,
			ResultBytes: 1 * platform.KB, Strategy: masterworker.BandwidthCentric,
		}
		if _, err := masterworker.Deploy(e, app); err != nil {
			b.Fatal(err)
		}
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations: the design choices DESIGN.md calls out ---

// BenchmarkAblationRecompute compares the engine's lazy component-based
// rate invalidation against full-platform recomputation on the Grid'5000
// platform: the lazy scheme is what makes 2170-host scenarios tractable.
func BenchmarkAblationRecompute(b *testing.B) {
	run := func(b *testing.B, full bool) {
		p := platform.Grid5000()
		var hosts []string
		for _, h := range p.Hosts() {
			hosts = append(hosts, h.Name)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := sim.New(p, nil)
			e.SetFullRecompute(full)
			app := &masterworker.App{
				Name: "abl", MasterHost: "adonis-1", Workers: hosts[:256], TaskCount: 512,
				TaskFlops: 10 * platform.GFlops, TaskBytes: 0.5 * platform.MB,
				ResultBytes: 10 * platform.KB, Strategy: masterworker.BandwidthCentric,
			}
			if _, err := masterworker.Deploy(e, app); err != nil {
				b.Fatal(err)
			}
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("lazy", func(b *testing.B) { run(b, false) })
	b.Run("full", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationTheta sweeps the Barnes-Hut opening angle: smaller
// theta is more exact and slower; theta 0.7 is the accuracy/speed point
// the layout defaults to.
func BenchmarkAblationTheta(b *testing.B) {
	for _, theta := range []float64{0.3, 0.7, 1.2} {
		b.Run(fmt.Sprintf("theta=%.1f", theta), func(b *testing.B) {
			l := buildLayout(b, 1024)
			p := l.Params()
			p.Theta = theta
			l.SetParams(p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step(layout.BarnesHut)
			}
		})
	}
}

// BenchmarkAblationSpringStrength measures whether multiplicity-weighted
// springs cost anything over uniform ones (they do not; they only change
// the force constants).
func BenchmarkAblationSpringStrength(b *testing.B) {
	for _, weighted := range []bool{false, true} {
		name := "uniform"
		if weighted {
			name = "weighted"
		}
		b.Run(name, func(b *testing.B) {
			l := layout.New(layout.DefaultParams())
			var springs []layout.Spring
			for i := 0; i < 512; i++ {
				id := fmt.Sprintf("n%d", i)
				if _, err := l.AddBodyAuto(id, 1); err != nil {
					b.Fatal(err)
				}
				if i > 0 {
					s := layout.Spring{A: fmt.Sprintf("n%d", (i-1)/2), B: id, Strength: 1}
					if weighted {
						s.Strength = 1 + float64(i%7)
					}
					springs = append(springs, s)
				}
			}
			if err := l.SetSprings(springs); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step(layout.BarnesHut)
			}
		})
	}
}

// BenchmarkGanttRender measures the baseline Gantt view at a realistic
// process count.
func BenchmarkGanttRender(b *testing.B) {
	tr := trace.New()
	tr.MustDeclareResource("h", trace.TypeHost, "")
	var procs []string
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("p%d", i)
		tr.MustDeclareResource(name, "process", "h")
		for t := 0; t < 50; t += 2 {
			if err := tr.SetState(float64(t), name, "compute"); err != nil {
				b.Fatal(err)
			}
			if err := tr.SetState(float64(t+1), name, "send"); err != nil {
				b.Fatal(err)
			}
		}
		procs = append(procs, name)
	}
	tr.SetEnd(50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gantt.SVG(tr, procs, 0, 50, gantt.DefaultOptions())
	}
}

// BenchmarkTreemapBuild measures the treemap alternative on the Grid'5000
// hierarchy.
func BenchmarkTreemapBuild(b *testing.B) {
	tr := trace.New()
	platform.Grid5000().DeclareInto(tr)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		b.Fatal(err)
	}
	slice := aggregation.TimeSlice{Start: 0, End: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		root, err := treemap.Build(ag, "grid5000", trace.TypeHost, trace.MetricPower, "", slice)
		if err != nil {
			b.Fatal(err)
		}
		treemap.Layout(root, 0, 0, 800, 600)
	}
}

// BenchmarkTraceRoundTrip measures serialising and parsing a mid-sized
// trace.
func BenchmarkTraceRoundTrip(b *testing.B) {
	tr := trace.New()
	platform.TwoClusters().DeclareInto(tr)
	for i := 0; i < 1000; i++ {
		if err := tr.Set(float64(i), "adonis-1", trace.MetricUsage, float64(i%7)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineWithFaults measures what fault awareness costs the
// engine's hot path. The healthy sub-benchmark is the exact Fig6
// workload and must stay within noise of BenchmarkFig6NASDTSequential:
// a simulation that injects nothing pays (next to) nothing. armed-idle
// carries a schedule whose only outage fires long after the workload
// finishes; churn rides out real host and link outages on the
// fault-tolerant messaging path.
func BenchmarkEngineWithFaults(b *testing.B) {
	g := nasdt.MustBuild(nasdt.WH, 'A')
	p := platform.TwoClusters()
	hf := nasdt.SequentialHostfile(nasdt.ClusterHosts(p, "adonis", "griffon"), g.NumNodes())
	run := func(b *testing.B, sched *fault.Schedule, cfg nasdt.Config) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := sim.New(platform.TwoClusters(), nil)
			if sched != nil {
				if err := e.InjectFaults(sched); err != nil {
					b.Fatal(err)
				}
			}
			nasdt.Run(e, g, hf, cfg)
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("healthy", func(b *testing.B) { run(b, nil, nasdt.DefaultConfig()) })
	b.Run("armed-idle", func(b *testing.B) {
		sched := fault.MustSchedule(
			fault.Event{Time: 1e6, Kind: fault.HostDown, Target: "adonis-1"},
			fault.Event{Time: 1e6 + 1, Kind: fault.HostUp, Target: "adonis-1"},
		)
		run(b, sched, nasdt.DefaultConfig())
	})
	b.Run("churn", func(b *testing.B) {
		var hosts, links []string
		for _, h := range p.Hosts() {
			hosts = append(hosts, h.Name)
			links = append(links, p.HostLink(h.Name))
		}
		sched := fault.Churn(1, fault.ChurnConfig{
			Hosts: hosts, Links: links,
			HostChurn: 0.1, LinkChurn: 0.1, Horizon: 80, MeanDowntime: 8,
		})
		cfg := nasdt.DefaultConfig()
		cfg.RecvTimeout = 5
		run(b, sched, cfg)
	})
}
