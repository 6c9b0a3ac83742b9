// Package vizgraph builds the paper's visual graph from aggregated trace
// data (Section 3.1): monitored entities become nodes drawn with simple
// geometric shapes — squares for hosts, diamonds for links, circles for
// routers — whose size follows a capacity metric and whose proportional
// fill follows a utilization metric. Each resource type gets its own
// independent size scale so entities of different natures remain
// comparable (Section 4.1, Figure 4), and the analyst can bias each scale
// with an interactive factor (the paper's sliders).
package vizgraph

import (
	"fmt"
	"sort"

	"viva/internal/aggregation"
	"viva/internal/obs"
	"viva/internal/trace"
)

// Self-observation of the graph build — the per-frame bridge between
// aggregation and layout. The aggregate/build frame spans split a
// build's budget into its Eq. 1 queries and the visual assembly.
var (
	obsBuilds = obs.Default.Counter("viva_vizgraph_builds_total",
		"Visual-graph builds (cut × slice × mapping evaluations).")
	obsNodes = obs.Default.Gauge("viva_vizgraph_nodes",
		"Nodes in the most recently built visual graph.")
	obsEdges = obs.Default.Gauge("viva_vizgraph_edges",
		"Edges in the most recently built visual graph.")
	obsEdgeCacheHits = obs.Default.Counter("viva_vizgraph_edge_cache_hits_total",
		"Edge projections served from the cut-generation cache.")
	obsEdgeCacheMisses = obs.Default.Counter("viva_vizgraph_edge_cache_misses_total",
		"Edge projections recomputed from the base topology.")
)

// Shape is the geometric representation of a node.
type Shape int

const (
	Square Shape = iota
	Diamond
	Circle
)

// String names the shape.
func (s Shape) String() string {
	switch s {
	case Square:
		return "square"
	case Diamond:
		return "diamond"
	case Circle:
		return "circle"
	default:
		return fmt.Sprintf("Shape(%d)", int(s))
	}
}

// TypeMapping maps one resource type to its visual encoding.
type TypeMapping struct {
	Type  string
	Shape Shape
	// SizeMetric drives the node's area (typically the capacity: power for
	// hosts, bandwidth for links). Empty means a fixed small size
	// (structural nodes like routers).
	SizeMetric string
	// FillMetric drives the proportional fill (typically the usage:
	// usage for hosts, traffic for links). Fill = fill/size sums, clamped
	// to [0, 1]. Empty means no fill.
	FillMetric string
	// Scale is the analyst's interactive slider for this type's size
	// scale; 1 is the automatic scaling (Figure 4 schemes A and B),
	// other values bias it (scheme C).
	Scale float64
	// Color is the CSS color the type's nodes are drawn with.
	Color string
	// SegmentCategories splits the fill into per-category segments when
	// the trace carries "<FillMetric>:<category>" variants (the
	// simulator's per-application tracing). This is the paper's
	// future-work "richer graphical objects" feature: one glance at an
	// aggregated square shows how the competing applications share it.
	SegmentCategories []string
	// FillAggregation selects how member utilizations combine in an
	// aggregated node (FillRatio by default).
	FillAggregation FillAggregation
}

// FillAggregation is the semantics of an aggregated node's fill.
type FillAggregation int

const (
	// FillRatio is the paper's aggregation: Σ fill-metric / Σ size-metric,
	// the capacity-weighted mean utilization. Meaningful for independent
	// resources (hosts), questionable for links — the paper's conclusion
	// notes that summing non-independent link usage "leads to hardly
	// explainable values" and hides saturation.
	FillRatio FillAggregation = iota
	// FillMaxRatio addresses exactly that: the aggregate shows the most
	// saturated member's utilization, so a single full link keeps the
	// group's diamond full — "network saturation and bottlenecks" stay
	// visible at any aggregation level.
	FillMaxRatio
)

// Mapping is the full visual configuration.
type Mapping struct {
	Types []TypeMapping
	// MaxPixel is the pixel size the largest value of each type maps to.
	MaxPixel float64
	// MinPixel floors the size of nodes whose value is tiny but non-zero,
	// keeping them visible.
	MinPixel float64
}

// DefaultMapping encodes the paper's convention: hosts are squares sized
// by computing power and filled by usage; links are diamonds sized by
// bandwidth and filled by traffic; routers are small circles.
func DefaultMapping() Mapping {
	return Mapping{
		Types: []TypeMapping{
			{Type: trace.TypeHost, Shape: Square, SizeMetric: trace.MetricPower, FillMetric: trace.MetricUsage, Scale: 1, Color: "#3b7dd8"},
			{Type: trace.TypeLink, Shape: Diamond, SizeMetric: trace.MetricBandwidth, FillMetric: trace.MetricTraffic, Scale: 1, Color: "#d85c3b"},
			{Type: "router", Shape: Circle, Scale: 1, Color: "#888888"},
		},
		MaxPixel: 60,
		MinPixel: 4,
	}
}

// TypeMapping returns the mapping of a type, or nil.
func (m *Mapping) TypeMapping(typ string) *TypeMapping {
	for i := range m.Types {
		if m.Types[i].Type == typ {
			return &m.Types[i]
		}
	}
	return nil
}

// SetScale adjusts the interactive scale factor of one type, returning
// false if the type has no mapping. Non-positive factors are rejected.
func (m *Mapping) SetScale(typ string, scale float64) bool {
	tm := m.TypeMapping(typ)
	if tm == nil || scale <= 0 {
		return false
	}
	tm.Scale = scale
	return true
}

// Node is one visual element: the aggregation of every entity of one type
// inside one active group of the current cut.
type Node struct {
	ID    string // group + "/" + type, unique in the graph
	Group string // active group of the cut
	Type  string // resource type aggregated in this node
	Label string // display label

	Shape Shape
	Color string  // CSS color inherited from the type mapping
	Value float64 // aggregated size-metric value (Eq. 1 sum)
	Size  float64 // pixel size after per-type scaling
	Fill  float64 // proportional fill in [0, 1]
	Avail float64 // mean availability over the slice in [0, 1]; 1 without faults
	Count int     // entities aggregated in the node

	SizeStats aggregation.Stats // statistical companions of Value
	FillStats aggregation.Stats

	// Segments split Fill per activity category (empty when the type
	// mapping requests none or the trace has no per-category data).
	// Fractions are of the whole node (like Fill), so they sum to at most
	// Fill.
	Segments []Segment
}

// Segment is one category's share of a node's fill.
type Segment struct {
	Category string
	Fraction float64
	Color    string
}

// segmentPalette colors categories by their index in SegmentCategories.
var segmentPalette = []string{
	"#2e7d32", "#c62828", "#6a1b9a", "#ef6c00", "#283593",
	"#00838f", "#ad1457", "#558b2f",
}

// Edge joins two nodes; Multiplicity counts how many base topology edges
// it bundles.
type Edge struct {
	From, To     string
	Multiplicity int
}

// Graph is the visual graph for one (cut, time slice, mapping) triple.
type Graph struct {
	Nodes []*Node
	// Edges is shared with every graph built from the same plan: read
	// it, never write its elements (an append copies, since its capacity
	// is its length).
	Edges []Edge
	Slice aggregation.TimeSlice

	token uint64           // the plan's structure token, see Token
	index map[string]int32 // node ID → position in Nodes, shared with the plan
}

// Token identifies the graph's structure: everything but the
// slice-dependent numbers (value, size, fill, availability, segments).
// Two graphs with one token have the same nodes in the same order, with
// the same IDs, groups, types, labels, shapes, colours and counts, and
// the same edges. The token is the build plan's: a new one is issued
// whenever the plan is recompiled, that is, when the cut generation, the
// aggregator epoch, or the drawn types and their shape, colour, metrics,
// fill aggregation or segment categories change. Tokens are never 0.
func (g *Graph) Token() uint64 { return g.token }

// Node returns a node by ID, or nil.
func (g *Graph) Node(id string) *Node {
	if i, ok := g.index[id]; ok {
		return g.Nodes[i]
	}
	return nil
}

// NodeID builds the canonical node identifier of a (group, type) pair.
func NodeID(group, typ string) string { return group + "/" + typ }

// Options tunes the graph construction.
type Options struct {
	// Parallelism is the number of worker goroutines sharding the graph's
	// nodes: 0 picks GOMAXPROCS, 1 forces the serial path. It mirrors the
	// layout engine's knob and shares its determinism contract: the output
	// is byte-identical at any worker count, because each node is a pure
	// function of its own member series and the slice, written to its own
	// slot in cut order.
	Parallelism int
	// Cache, when non-nil, carries the slice-invariant build plan between
	// successive builds of one view. Pass the same pointer on every frame;
	// the cache checks its own validity (cut generation, aggregator epoch
	// and the mapping's metrics), so any caller mistake costs
	// recomputation, never wrong output.
	Cache *BuildCache
}

// BuildCache holds the slice-invariant part of a build: the compiled
// plan of the cut (node identities and resolved member series) and the
// projected edge bundles, so a scrubbing analyst pays member resolution
// and per-edge owner resolution once per cut, not once per frame.
type BuildCache struct {
	plan *plan
}

// Build assembles the visual graph: for every active group of the cut and
// every mapped resource type present in it, one node carrying the
// aggregated metrics over the time slice; plus the projection of the base
// topology edges onto those nodes. It is BuildOpts with default options
// (parallel across GOMAXPROCS workers when the cut is large enough).
func Build(ag *aggregation.Aggregator, cut *aggregation.Cut, m Mapping, slice aggregation.TimeSlice) (*Graph, error) {
	return BuildOpts(ag, cut, m, slice, Options{})
}

// BuildOpts is Build with explicit options. Every build evaluates a
// plan: the cached one when it is still current, otherwise a freshly
// compiled one (kept in the cache when there is one).
func BuildOpts(ag *aggregation.Aggregator, cut *aggregation.Cut, m Mapping, slice aggregation.TimeSlice, opts Options) (*Graph, error) {
	if m.MaxPixel <= 0 {
		return nil, fmt.Errorf("vizgraph: mapping needs a positive MaxPixel")
	}
	obsBuilds.Inc()
	aggSpan := obs.StartSpan(obs.StageAggregate)
	var old *plan
	if opts.Cache != nil {
		old = opts.Cache.plan
	}
	p := old
	if !p.matches(ag, cut, m) {
		var err error
		if p, err = compilePlan(ag, cut, m, old); err != nil {
			aggSpan.End()
			return nil, err
		}
		if opts.Cache != nil {
			opts.Cache.plan = p
		}
	}
	nodes := p.eval(slice, opts.Parallelism)
	aggSpan.End()
	buildSpan := obs.StartSpan(obs.StageBuild)
	defer buildSpan.End()
	g := &Graph{Nodes: nodes, Edges: p.edges[:len(p.edges):len(p.edges)], Slice: slice, token: p.token, index: p.index}
	p.scaleSizes(nodes, m)
	obsNodes.Set(float64(len(g.Nodes)))
	obsEdges.Set(float64(len(g.Edges)))
	return g, nil
}

// scaleSizes implements the independent per-type automatic scaling: the
// largest size-metric value of each type within the current time slice
// maps to MaxPixel (times the type's interactive scale factor).
func (p *plan) scaleSizes(nodes []*Node, m Mapping) {
	maxByType := make([]float64, len(p.types))
	for i, n := range nodes {
		if tm := p.nodes[i].tm; n.Value > maxByType[tm] {
			maxByType[tm] = n.Value
		}
	}
	for i, n := range nodes {
		ti := p.nodes[i].tm
		tm := &m.Types[ti]
		switch {
		case tm.SizeMetric == "":
			// Structural node: fixed small footprint.
			n.Size = m.MaxPixel * 0.25 * tm.Scale
		case maxByType[ti] <= 0:
			n.Size = m.MinPixel
		default:
			n.Size = n.Value / maxByType[ti] * m.MaxPixel * tm.Scale
			if n.Size < m.MinPixel && n.Value > 0 {
				n.Size = m.MinPixel
			}
		}
	}
}

// projectEdges maps the base topology edges onto the plan's (group,
// type) nodes. The memoized owner index replaces the per-endpoint
// ancestor walks; interior endpoints (not in the index) fall back to the
// walking Owner.
func (p *plan) projectEdges(ag *aggregation.Aggregator, cut *aggregation.Cut) []Edge {
	tree := ag.Tree()
	owners := cut.OwnerIndex()
	ownerOf := func(name string) string {
		if o, ok := owners[name]; ok {
			return o
		}
		return cut.Owner(name)
	}
	type key struct{ a, b string }
	counts := make(map[key]int)
	for _, e := range ag.Source().Edges() {
		na, nb := tree.Node(e.A), tree.Node(e.B)
		if na == nil || nb == nil {
			continue
		}
		ida := NodeID(ownerOf(e.A), na.Type)
		idb := NodeID(ownerOf(e.B), nb.Type)
		if ida == idb {
			continue
		}
		if _, ok := p.index[ida]; !ok {
			continue // endpoint type not drawn
		}
		if _, ok := p.index[idb]; !ok {
			continue
		}
		if ida > idb {
			ida, idb = idb, ida
		}
		counts[key{ida, idb}]++
	}
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	edges := make([]Edge, 0, len(keys))
	for _, k := range keys {
		edges = append(edges, Edge{From: k.a, To: k.b, Multiplicity: counts[k]})
	}
	return edges
}
