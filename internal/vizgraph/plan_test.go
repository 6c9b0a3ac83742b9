package vizgraph

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"viva/internal/aggregation"
	"viva/internal/masterworker"
	"viva/internal/platform"
	"viva/internal/sim"
	"viva/internal/store"
	"viva/internal/trace"
)

// referenceGraph builds the nodes of a graph with one aggregator query
// per node and metric (Stats, Availability, MaxMemberRatio, TypeCount)
// and a per-type size scaling over a map: the oracle the plan's
// evaluation is checked against.
func referenceGraph(t *testing.T, ag *aggregation.Aggregator, cut *aggregation.Cut, m Mapping, s aggregation.TimeSlice) []Node {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var nodes []Node
	for _, group := range cut.Groups() {
		types, err := ag.TypesUnder(group)
		must(err)
		for _, typ := range types {
			tm := m.TypeMapping(typ)
			if tm == nil {
				continue
			}
			n := Node{ID: NodeID(group, typ), Group: group, Type: typ, Shape: tm.Shape, Color: tm.Color, Label: group}
			if !ag.Tree().Node(group).IsEntity() {
				n.Label = fmt.Sprintf("%s[%s]", group, typ)
			}
			n.Avail, err = ag.Availability(group, typ, s)
			must(err)
			if tm.SizeMetric != "" {
				n.SizeStats, err = ag.Stats(group, typ, tm.SizeMetric, s)
				must(err)
				n.Value, n.Count = n.SizeStats.Sum, n.SizeStats.Count
			}
			if n.Count == 0 {
				n.Count, err = ag.TypeCount(group, typ)
				must(err)
			}
			if tm.FillMetric != "" && tm.SizeMetric != "" {
				n.FillStats, err = ag.Stats(group, typ, tm.FillMetric, s)
				must(err)
				if n.SizeStats.Sum > 0 {
					n.Fill = n.FillStats.Sum / n.SizeStats.Sum
					if tm.FillAggregation == FillMaxRatio {
						n.Fill, err = ag.MaxMemberRatio(group, typ, tm.FillMetric, tm.SizeMetric, s)
						must(err)
					}
					if n.Fill < 0 {
						n.Fill = 0
					}
					if n.Fill > 1 {
						n.Fill = 1
					}
					for i, cat := range tm.SegmentCategories {
						st, err := ag.Stats(group, typ, tm.FillMetric+":"+cat, s)
						must(err)
						if st.Count == 0 || st.Sum <= 0 {
							continue
						}
						frac := st.Sum / n.SizeStats.Sum
						if frac > 1 {
							frac = 1
						}
						n.Segments = append(n.Segments, Segment{Category: cat, Fraction: frac, Color: segmentPalette[i%len(segmentPalette)]})
					}
				}
			}
			nodes = append(nodes, n)
		}
	}
	maxByType := map[string]float64{}
	for _, n := range nodes {
		if n.Value > maxByType[n.Type] {
			maxByType[n.Type] = n.Value
		}
	}
	for i := range nodes {
		n := &nodes[i]
		tm := m.TypeMapping(n.Type)
		switch {
		case tm.SizeMetric == "":
			n.Size = m.MaxPixel * 0.25 * tm.Scale
		case maxByType[n.Type] <= 0:
			n.Size = m.MinPixel
		default:
			n.Size = n.Value / maxByType[n.Type] * m.MaxPixel * tm.Scale
			if n.Size < m.MinPixel && n.Value > 0 {
				n.Size = m.MinPixel
			}
		}
	}
	return nodes
}

// sitesTrace simulates a master-worker run on a two-site, three-cluster
// platform with per-application tracing: three hierarchy levels above
// the hosts, links of several kinds, category variants of usage, and
// availability on some hosts.
func sitesTrace(t *testing.T) *trace.Trace {
	t.Helper()
	p := platform.New("grid")
	site := platform.SiteConfig{BackboneBandwidth: 1 * platform.GB, UplinkBandwidth: 1 * platform.GB}
	cluster := func(hosts int, power float64) platform.ClusterConfig {
		return platform.ClusterConfig{
			Hosts: hosts, HostPower: power, HostLinkBandwidth: 125 * platform.MB,
			BackboneBandwidth: 1 * platform.GB, UplinkBandwidth: 1 * platform.GB,
		}
	}
	p.AddSite("s1", site)
	p.AddSite("s2", site)
	p.AddCluster("s1", "c1", cluster(6, 1*platform.GFlops))
	p.AddCluster("s1", "c2", cluster(4, 2*platform.GFlops))
	p.AddCluster("s2", "c3", cluster(5, 3*platform.GFlops))
	tr := trace.New()
	e := sim.New(p, tr)
	e.TraceCategories(true)
	var hosts []string
	for _, h := range p.Hosts() {
		hosts = append(hosts, h.Name)
	}
	for i, name := range []string{"app0", "app1"} {
		app := &masterworker.App{
			Name: name, MasterHost: hosts[i*7], Workers: hosts, TaskCount: 60,
			TaskFlops: 50 * platform.MFlops, TaskBytes: 200 * platform.KB,
			ResultBytes: 10 * platform.KB, Strategy: masterworker.BandwidthCentric,
		}
		if _, err := masterworker.Deploy(e, app); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Outages on every third host, so availability varies per group.
	_, end := tr.Window()
	for i, h := range hosts {
		if i%3 != 0 {
			continue
		}
		for k, a := range []float64{1, 0.25 * float64(i%4), 1} {
			if err := tr.Set(end*float64(k)/3, h, trace.MetricAvailability, a); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tr
}

// storeOf writes a trace to a .vvc file with small chunks and a small
// cache (so queries page) and opens it.
func storeOf(t *testing.T, tr *trace.Trace) *store.Store {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.vvc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteTrace(f, tr, store.WriterOptions{ChunkPoints: 16}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := store.OpenWith(path, store.OpenOptions{CacheBytes: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestPlanMatchesPerQueryReference is the plan's differential test: at
// leaf, level-1 and level-2 cuts, over random slices (inside, straddling
// and outside the window), with segment categories on hosts and
// FillMaxRatio on links, a plan-built graph equals the per-query
// reference node by node — on the heap trace and on its .vvc store, with
// the cached plan reused across slices and with a throwaway plan, at one
// and at four workers.
func TestPlanMatchesPerQueryReference(t *testing.T) {
	tr := sitesTrace(t)
	m := DefaultMapping()
	m.Types[0].SegmentCategories = []string{"app0", "app1", "absent"}
	m.Types[1].FillAggregation = FillMaxRatio
	m.Types[1].Scale = 1.5
	_, end := tr.Window()
	for _, src := range []struct {
		name string
		src  aggregation.Source
	}{{"heap", tr}, {"store", storeOf(t, tr)}} {
		ag, err := aggregation.NewAggregator(src.src)
		if err != nil {
			t.Fatal(err)
		}
		for _, depth := range []int{-1, 1, 2} {
			cut := aggregation.NewLeafCut(ag.Tree())
			if depth >= 0 {
				cut = aggregation.NewLevelCut(ag.Tree(), depth)
			}
			r := rand.New(rand.NewSource(int64(depth + 2)))
			cache := &BuildCache{}
			segs := 0
			for i := 0; i < 8; i++ {
				a := end * (1.2*r.Float64() - 0.1)
				s := aggregation.TimeSlice{Start: a, End: a + end*r.Float64()/2}
				want := referenceGraph(t, ag, cut, m, s)
				for _, opts := range []Options{{Parallelism: 1, Cache: cache}, {Parallelism: 4}} {
					g, err := BuildOpts(ag, cut, m, s, opts)
					if err != nil {
						t.Fatal(err)
					}
					if len(g.Nodes) != len(want) {
						t.Fatalf("%s depth %d: %d nodes, reference %d", src.name, depth, len(g.Nodes), len(want))
					}
					for k, n := range g.Nodes {
						if !reflect.DeepEqual(*n, want[k]) {
							t.Fatalf("%s depth %d slice %+v par %d node %d:\nplan      %+v\nreference %+v",
								src.name, depth, s, opts.Parallelism, k, *n, want[k])
						}
						if g.Node(n.ID) != n {
							t.Fatalf("Node(%q) does not return the graph's node", n.ID)
						}
						segs += len(n.Segments)
					}
				}
			}
			if segs == 0 {
				t.Errorf("%s depth %d: no segments drawn, the fixture does not exercise them", src.name, depth)
			}
		}
	}
}

// TestPlanRecompiles pins the plan's keys: a metric that appears after
// Invalidate reaches the next cached build; new segment categories and a
// new fill aggregation recompile the plan; a scale change does not, and
// reaches the sizes anyway; a recompile for the same cut keeps the edges.
// The graph's structure token changes with every recompile and only then.
func TestPlanRecompiles(t *testing.T) {
	tr := fig1Trace(t)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := aggregation.NewLevelCut(ag.Tree(), 0)
	m := DefaultMapping()
	s := aggregation.TimeSlice{Start: 0, End: 10}
	cache := &BuildCache{}
	compiles := obsPlanCompiles.Value
	// Every build also checks the structure token: a new one exactly
	// when the plan was recompiled.
	var token uint64
	lastCompiles := compiles()
	build := func() *Graph {
		t.Helper()
		g, err := BuildOpts(ag, cut, m, s, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if c := compiles(); g.Token() == 0 || (g.Token() != token) != (c != lastCompiles) {
			t.Fatalf("token %d -> %d across %d compiles", token, g.Token(), c-lastCompiles)
		}
		token, lastCompiles = g.Token(), compiles()
		return g
	}
	hostNode := func(g *Graph) *Node {
		t.Helper()
		for _, n := range g.Nodes {
			if n.Type == trace.TypeHost {
				return n
			}
		}
		t.Fatal("no host node")
		return nil
	}

	g0 := build()
	c0 := compiles()
	build()
	if compiles() != c0 {
		t.Fatal("an unchanged build recompiled the plan")
	}

	// A brand-new per-category metric: invisible until Invalidate.
	m.Types[0].SegmentCategories = []string{"late"}
	if n := hostNode(build()); len(n.Segments) != 0 {
		t.Fatalf("segments before the metric exists: %+v", n.Segments)
	}
	if compiles() != c0+1 {
		t.Fatalf("new segment categories: %d compiles, want 1", compiles()-c0)
	}
	leaf, err := ag.Tree().LeavesUnder(hostNode(g0).Group)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range leaf {
		if ag.Tree().Node(l).Type == trace.TypeHost {
			if err := tr.Set(0, l, trace.MetricUsage+":late", 1e6); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if n := hostNode(build()); len(n.Segments) != 0 {
		t.Fatal("a new metric reached the plan without Invalidate")
	}
	ag.Invalidate()
	if n := hostNode(build()); len(n.Segments) != 1 || n.Segments[0].Category != "late" {
		t.Fatalf("after Invalidate: segments %+v, want one for late", n.Segments)
	}
	if compiles() != c0+2 {
		t.Fatalf("Invalidate: %d compiles since start, want 2", compiles()-c0)
	}

	// Fill aggregation recompiles; scale does not but still applies.
	m.Types[0].FillAggregation = FillMaxRatio
	build()
	if compiles() != c0+3 {
		t.Fatal("a new fill aggregation did not recompile the plan")
	}
	before := hostNode(build()).Size
	m.Types[0].Scale = 2
	g := build()
	if compiles() != c0+3 {
		t.Fatal("a scale change recompiled the plan")
	}
	if got := hostNode(g).Size; got != 2*before {
		t.Errorf("scaled size %g, want %g", got, 2*before)
	}

	// Every recompile above kept the cut and the types, hence the edges.
	fresh, err := Build(ag, cut, m, s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.Edges, fresh.Edges) || len(g.Edges) == 0 {
		t.Errorf("cached edges %v, fresh %v", g.Edges, fresh.Edges)
	}
}

// TestGraphEdgesShared checks that graphs built from one plan share its
// edge list without exposing it: appending to one graph's Edges leaves
// the next build's edges as they were.
func TestGraphEdgesShared(t *testing.T) {
	tr := fig1Trace(t)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	cut := aggregation.NewLeafCut(ag.Tree())
	cache := &BuildCache{}
	build := func(end float64) *Graph {
		t.Helper()
		g, err := BuildOpts(ag, cut, DefaultMapping(), aggregation.TimeSlice{Start: 0, End: end}, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g := build(10)
	want := slices.Clone(g.Edges)
	if len(want) == 0 {
		t.Fatal("fixture has no edges")
	}
	_ = append(g.Edges, Edge{From: "x", To: "y", Multiplicity: 7})
	next := build(5)
	if next.Token() != g.Token() {
		t.Fatal("a slice change recompiled the plan")
	}
	if !slices.Equal(next.Edges, want) || !slices.Equal(g.Edges, want) {
		t.Fatalf("edges after an append: %v, want %v", next.Edges, want)
	}
}
