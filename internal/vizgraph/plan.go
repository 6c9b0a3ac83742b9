package vizgraph

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"viva/internal/aggregation"
	"viva/internal/obs"
	"viva/internal/trace"
)

var obsPlanCompiles = obs.Default.Counter("viva_vizgraph_plan_compiles_total",
	"Build plans compiled (cut, mapping metrics or aggregator epoch changed).")

// planTokens numbers compiled plans, process-wide, from 1.
var planTokens atomic.Uint64

// plan is the slice-invariant half of a build: for every node of a cut,
// in cut order, everything that does not depend on the time slice —
// identity, label, shape, colour, entity count — plus the member series
// Equation 1 integrates for each of its metrics. A slice change then
// only evaluates aggregation.StatsOver over those series (eval), with no
// hierarchy walk, no map and no string formatting per node.
//
// A plan is immutable once compiled, so graphs built from it may share
// its strings and its index, and workers may read it concurrently.
type plan struct {
	token uint64        // structure token, see Graph.Token
	gen   uint64        // cut generation
	epoch uint64        // aggregator epoch
	types []TypeMapping // the mapping it was compiled for (see sameMetrics)
	nodes []planNode
	index map[string]int32 // node ID → position in nodes
	segs  int              // Σ segment categories over nodes
	edges []Edge           // the cut's projected topology
}

// planNode is one node of a plan.
type planNode struct {
	id, group, typ, label string
	tm                    int // index of the node's type in plan.types
	count                 int // entities aggregated in the node
	segAt                 int // first slot of the node's segments in the graph's block

	avail, size, fill []trace.Series
	segments          [][]trace.Series // per SegmentCategories entry
	// ratioSize/ratioFill pair the members carrying both metrics
	// (FillMaxRatio only).
	ratioSize, ratioFill []trace.Series
}

// sameMetrics reports whether two mappings draw the same types with the
// same slice-invariant encoding: shape, colour, metrics, fill aggregation
// and segment categories. Scale is left out — it only enters the
// per-frame size scaling.
func sameMetrics(a, b []TypeMapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Type != y.Type || x.Shape != y.Shape || x.Color != y.Color ||
			x.SizeMetric != y.SizeMetric || x.FillMetric != y.FillMetric ||
			x.FillAggregation != y.FillAggregation ||
			!slices.Equal(x.SegmentCategories, y.SegmentCategories) {
			return false
		}
	}
	return true
}

// matches reports whether the plan is current for this build.
func (p *plan) matches(ag *aggregation.Aggregator, cut *aggregation.Cut, m Mapping) bool {
	return p != nil && p.gen == cut.Generation() && p.epoch == ag.Epoch() && sameMetrics(p.types, m.Types)
}

// compilePlan resolves the plan of a cut under a mapping: for every
// active group in cut order and every mapped type present under it, the
// node's identity and its member series; then the edge projection, taken
// over from the previous plan (nil when there is none) when the cut and
// the drawn types are the same, since nodes exist by cut and type alone.
func compilePlan(ag *aggregation.Aggregator, cut *aggregation.Cut, m Mapping, prev *plan) (*plan, error) {
	obsPlanCompiles.Inc()
	p := &plan{token: planTokens.Add(1), gen: cut.Generation(), epoch: ag.Epoch(), types: make([]TypeMapping, len(m.Types))}
	for i, tm := range m.Types {
		tm.SegmentCategories = slices.Clone(tm.SegmentCategories)
		p.types[i] = tm
	}
	tree := ag.Tree()
	groups := cut.Groups()
	p.nodes = make([]planNode, 0, len(groups))
	for _, group := range groups {
		types, err := ag.TypesUnder(group)
		if err != nil {
			return nil, err
		}
		groupIsLeaf := tree.Node(group).IsEntity()
		for _, typ := range types {
			ti := typeIndex(p.types, typ)
			if ti < 0 {
				continue // unmapped types are not drawn
			}
			pn, err := compileNode(ag, group, typ, &p.types[ti])
			if err != nil {
				return nil, err
			}
			pn.tm = ti
			pn.label = group
			if !groupIsLeaf {
				pn.label = group + "[" + typ + "]"
			}
			pn.segAt = p.segs
			p.segs += len(pn.segments)
			p.nodes = append(p.nodes, pn)
		}
	}
	p.index = make(map[string]int32, len(p.nodes))
	for i := range p.nodes {
		p.index[p.nodes[i].id] = int32(i)
	}
	if prev != nil && prev.gen == p.gen && sameTypes(prev.types, p.types) {
		obsEdgeCacheHits.Inc()
		p.edges = prev.edges
	} else {
		obsEdgeCacheMisses.Inc()
		p.edges = p.projectEdges(ag, cut)
	}
	return p, nil
}

// sameTypes reports whether two mappings draw the same types.
func sameTypes(a, b []TypeMapping) bool {
	return slices.EqualFunc(a, b, func(x, y TypeMapping) bool { return x.Type == y.Type })
}

// typeIndex returns the position of a type's mapping, or -1.
func typeIndex(types []TypeMapping, typ string) int {
	for i := range types {
		if types[i].Type == typ {
			return i
		}
	}
	return -1
}

// compileNode resolves the member series of one (group, type) node.
func compileNode(ag *aggregation.Aggregator, group, typ string, tm *TypeMapping) (planNode, error) {
	pn := planNode{id: NodeID(group, typ), group: group, typ: typ}
	var err error
	if pn.avail, err = ag.Members(group, typ, trace.MetricAvailability); err != nil {
		return pn, err
	}
	if tm.SizeMetric != "" {
		if pn.size, err = ag.Members(group, typ, tm.SizeMetric); err != nil {
			return pn, err
		}
		pn.count = len(pn.size)
	}
	if pn.count == 0 {
		// Count leaves of the type even without the size metric
		// (structural nodes).
		if pn.count, err = ag.TypeCount(group, typ); err != nil {
			return pn, err
		}
	}
	if tm.FillMetric == "" || tm.SizeMetric == "" {
		return pn, nil
	}
	if pn.fill, err = ag.Members(group, typ, tm.FillMetric); err != nil {
		return pn, err
	}
	if tm.FillAggregation == FillMaxRatio {
		if pn.ratioSize, pn.ratioFill, err = ag.MemberPairs(group, typ, tm.SizeMetric, tm.FillMetric); err != nil {
			return pn, err
		}
	}
	if len(tm.SegmentCategories) > 0 {
		pn.segments = make([][]trace.Series, len(tm.SegmentCategories))
		for i, cat := range tm.SegmentCategories {
			if pn.segments[i], err = ag.Members(group, typ, tm.FillMetric+":"+cat); err != nil {
				return pn, err
			}
		}
	}
	return pn, nil
}

// evalGrain is the minimum number of nodes per worker; below it the
// goroutine hand-off costs more than the Eq. 1 evaluations it spreads.
const evalGrain = 64

// workers resolves a Parallelism setting against the most workers the
// work can use, at least 1.
func workers(parallelism, most int) int {
	w := parallelism
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, most), 1)
}

// eval evaluates every node of the plan over the slice into a fresh node
// block, in plan order. Workers take contiguous node ranges and write
// only their own nodes (and their own segment ranges), so the fan-out
// needs no lock, and every node's value is the same whichever worker
// computes it.
func (p *plan) eval(slice aggregation.TimeSlice, parallelism int) []*Node {
	if len(p.nodes) == 0 {
		return nil
	}
	nodes := make([]Node, len(p.nodes))
	// Each node's segments get a fixed window of one shared block, so
	// workers append into disjoint ranges.
	segs := make([]Segment, p.segs)
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			at, end := p.nodes[i].segAt, p.nodes[i].segAt+len(p.nodes[i].segments)
			p.evalNode(&nodes[i], i, slice, segs[at:at:end])
		}
	}
	w := workers(parallelism, len(p.nodes)/evalGrain)
	if w == 1 {
		run(0, len(p.nodes))
	} else {
		var wg sync.WaitGroup
		wg.Add(w)
		for k := 0; k < w; k++ {
			go func(lo, hi int) {
				defer wg.Done()
				run(lo, hi)
			}(k*len(p.nodes)/w, (k+1)*len(p.nodes)/w)
		}
		wg.Wait()
	}
	out := make([]*Node, len(nodes))
	for i := range nodes {
		out[i] = &nodes[i]
	}
	return out
}

// evalNode is Equation 1 for one node: availability, size and fill
// statistics, fill and segments over the slice. segs is the node's
// empty window of the graph's segment block.
func (p *plan) evalNode(n *Node, i int, slice aggregation.TimeSlice, segs []Segment) {
	pn := &p.nodes[i]
	tm := &p.types[pn.tm]
	*n = Node{
		ID: pn.id, Group: pn.group, Type: pn.typ, Label: pn.label,
		Shape: tm.Shape, Color: tm.Color, Count: pn.count,
		Avail: aggregation.AvailabilityOf(aggregation.StatsOver(pn.avail, slice)),
	}
	if tm.SizeMetric != "" {
		n.SizeStats = aggregation.StatsOver(pn.size, slice)
		n.Value = n.SizeStats.Sum
	}
	if tm.FillMetric == "" || tm.SizeMetric == "" {
		return
	}
	n.FillStats = aggregation.StatsOver(pn.fill, slice)
	if n.SizeStats.Sum <= 0 {
		return
	}
	if tm.FillAggregation == FillMaxRatio {
		n.Fill = aggregation.MaxRatioOver(pn.ratioSize, pn.ratioFill, slice)
	} else {
		n.Fill = n.FillStats.Sum / n.SizeStats.Sum
	}
	n.Fill = min(max(n.Fill, 0), 1)
	for c, members := range pn.segments {
		st := aggregation.StatsOver(members, slice)
		if st.Count == 0 || st.Sum <= 0 {
			continue
		}
		segs = append(segs, Segment{
			Category: tm.SegmentCategories[c],
			Fraction: min(st.Sum/n.SizeStats.Sum, 1),
			Color:    segmentPalette[c%len(segmentPalette)],
		})
	}
	if len(segs) > 0 {
		n.Segments = segs
	}
}
