// Package core is the public face of the library: the interactive
// topology-based view of the paper. A View ties together a trace, the
// multi-scale aggregation state (spatial cut × time slice), the visual
// mapping and the dynamic force-directed layout, and exposes exactly the
// operations the paper gives the analyst:
//
//   - choose and shift the time slice (temporal aggregation, Figure 2,
//     and the animation of Figure 9);
//   - aggregate and disaggregate groups of nodes, or jump to a whole
//     hierarchy level (spatial aggregation, Figures 3 and 8);
//   - tune the per-type size scales (Figure 4) and the charge / spring /
//     damping parameters of the layout (Figure 5);
//   - drag nodes, with the neighbourhood following through the springs.
//
// Aggregation transitions are smooth by construction: an aggregate node
// appears at the charge-weighted centroid of the nodes it replaces, and
// disaggregated children return to where that aggregation found them in
// a converged layout (shifted by any drag of the aggregate since), or
// else scatter deterministically around their parent's last position, so
// the analyst never loses the picture.
package core

import (
	"fmt"
	"math"

	"viva/internal/aggregation"
	"viva/internal/layout"
	"viva/internal/obs"
	"viva/internal/trace"
	"viva/internal/vizgraph"
)

// Self-observation of the view: rebuild count tells how often the graph
// cache misses; the generation gauge lets a dashboard correlate metric
// movement with analyst interactions.
var (
	obsGraphRebuilds = obs.Default.Counter("viva_core_graph_rebuilds_total",
		"Visual-graph rebuilds triggered by view mutations.")
	obsGeneration = obs.Default.Gauge("viva_core_view_generation",
		"Input-mutation generation of the (most recently touched) view.")
	obsRelayoutIncremental = obs.Default.Counter("viva_core_relayout_incremental_total",
		"Stabilize calls served by an incremental (active-set) refinement.")
	obsRelayoutCold = obs.Default.Counter("viva_core_relayout_cold_total",
		"Stabilize calls that ran the global solver.")
)

// View is an interactive topology-based visualization session over one
// trace. It is not safe for concurrent use; wrap it (as internal/server
// does) when sharing.
type View struct {
	src     aggregation.Source
	ag      *aggregation.Aggregator
	cut     *aggregation.Cut
	mapping vizgraph.Mapping
	slice   aggregation.TimeSlice
	window  aggregation.TimeSlice // observation window at open, see SetTimeSlice
	lay     *layout.Layout

	graph  *vizgraph.Graph
	dirty  bool
	par    int    // worker bound shared by layout steps and graph builds
	gen    uint64 // input-mutation counter, see Generation
	bcache vizgraph.BuildCache

	// lastSprings is the spring set of the last sync, so unchanged
	// topologies (every slice scrub) skip the layout's adjacency rebuild.
	lastSprings []layout.Spring

	// Settled state: converged records that the layout's residual fell
	// below eps since the last global perturbation (new layout params);
	// perturbed accumulates the node IDs that graph changes or drags have
	// disturbed since. A vanished body perturbs through the aggregate or
	// children that replace it and the surviving ends of its springs. A
	// converged view with nothing perturbed is settled: no step is taken
	// until something perturbs it. Otherwise StepLayout and Stabilize
	// relax the neighbourhood of the perturbed bodies (see stepLocal).
	converged    bool
	perturbed    map[string]struct{}
	eps          float64 // residual bound (render px) the view settles at
	lastRelayout RelayoutInfo

	// swallowed remembers, for each body an aggregation took out of a
	// converged layout, the aggregate that took it and where it was, so
	// disaggregating that aggregate puts the picture back. The positions
	// are absolute: an aggregate drifts while it relaxes among its
	// neighbours, but its members' places in the equilibrium do not. A
	// drag of the aggregate moves them along; new layout params or a
	// cold re-solve, which move the equilibrium itself, forget them.
	swallowed map[string]swallow
}

// swallow is where an aggregation found one of the bodies it replaced.
type swallow struct {
	by  string // the aggregate's node ID
	pos layout.Point
}

// defaultEps is the residual bound, in render px, a view settles at
// before any Stabilize call sets one: a tenth of a pixel on screen.
const defaultEps = 0.1

// RelayoutInfo describes how the last Stabilize settled the layout.
type RelayoutInfo struct {
	// Mode is "cold" (global solve), "incremental" (active-set
	// refinement), "multilevel" (V-cycle), or "" before any stabilize.
	Mode string `json:"mode"`
	// Steps the solver took, Active the active-set size (incremental
	// only), Residual the final max displacement.
	Steps    int     `json:"steps"`
	Active   int     `json:"active,omitempty"`
	Residual float64 `json:"residual"`
}

// LastRelayout reports how the most recent Stabilize or
// StabilizeMultilevel call did its work.
func (v *View) LastRelayout() RelayoutInfo { return v.lastRelayout }

// Settled reports whether the layout has converged and nothing has
// perturbed it since: StepLayout and Stabilize then take no step, so a
// rendering of the view stays current until the next Generation.
func (v *View) Settled() bool { return v.converged && len(v.perturbed) == 0 }

// perturb marks node IDs whose neighbourhood must be re-relaxed before
// the layout can be considered settled again.
func (v *View) perturb(ids ...string) {
	if v.perturbed == nil {
		v.perturbed = make(map[string]struct{})
	}
	for _, id := range ids {
		v.perturbed[id] = struct{}{}
	}
}

// Generation counts the mutations of the view's inputs: time slice, cut,
// visual mapping, layout parameters and drags. Layout *stepping* is
// deliberately not counted — a server can pair Generation with the
// layout's settledness to decide whether a cached rendering of the view
// is still current.
func (v *View) Generation() uint64 { return v.gen }

// touch records an input mutation.
func (v *View) touch() {
	v.gen++
	obsGeneration.Set(float64(v.gen))
}

// NewView opens a view on a trace: leaf-level cut, default mapping, the
// whole observation window as time slice, Barnes-Hut layout.
func NewView(tr *trace.Trace) (*View, error) {
	return NewViewOf(tr)
}

// NewViewOf opens a view on any aggregation source — an in-heap trace or
// an out-of-core store — with the same defaults as NewView.
func NewViewOf(src aggregation.Source) (*View, error) {
	ag, err := aggregation.NewAggregator(src)
	if err != nil {
		return nil, err
	}
	start, end := src.Window()
	if end <= start {
		end = start + 1
	}
	v := &View{
		src:     src,
		ag:      ag,
		cut:     aggregation.NewLeafCut(ag.Tree()),
		mapping: vizgraph.DefaultMapping(),
		slice:   aggregation.TimeSlice{Start: start, End: end},
		window:  aggregation.TimeSlice{Start: start, End: end},
		lay:     layout.New(layout.DefaultParams()),
		dirty:   true,
		eps:     defaultEps,
	}
	if _, err := v.Graph(); err != nil {
		return nil, err
	}
	return v, nil
}

// Source returns the underlying data source.
func (v *View) Source() aggregation.Source { return v.src }

// Trace returns the underlying trace when the view is heap-backed, or nil
// when it serves an out-of-core source; prefer Source for read paths.
func (v *View) Trace() *trace.Trace {
	tr, _ := v.src.(*trace.Trace)
	return tr
}

// Aggregator exposes the aggregation engine for custom queries.
func (v *View) Aggregator() *aggregation.Aggregator { return v.ag }

// Cut returns the current spatial cut (read it, don't mutate it directly —
// use Aggregate/Disaggregate/SetLevel so the layout tracks the change).
func (v *View) Cut() *aggregation.Cut { return v.cut }

// Layout returns the live layout.
func (v *View) Layout() *layout.Layout { return v.lay }

// Mapping returns a pointer to the visual mapping; adjust scales through
// SetScale so the graph refreshes.
func (v *View) Mapping() *vizgraph.Mapping { return &v.mapping }

// TimeSlice returns the current temporal aggregation window.
func (v *View) TimeSlice() aggregation.TimeSlice { return v.slice }

// maxSliceReach bounds how far a time slice may lie from the trace's
// observation window, in window lengths (at least one second each).
// Finite bounds alone do not keep Equation 1 finite: a slice reaching
// 1e308 s integrates any positive rate to ±Inf, which no view can draw
// or serve. 2^40 lengths is beyond any analysis yet leaves the integrals
// of any plausible metric — value × time — far from overflow.
const maxSliceReach = 1 << 40

// SetTimeSlice selects the temporal neighbourhood Δ. Node identities are
// unaffected, so the layout keeps every position: only sizes and fills
// change. The bounds and the width must be finite, the slice must not be
// empty, and it must lie within maxSliceReach window lengths of the
// observation window the view opened on.
func (v *View) SetTimeSlice(start, end float64) error {
	if !finite(start) || !finite(end) || !finite(end-start) {
		return fmt.Errorf("core: non-finite time slice [%g, %g]", start, end)
	}
	if end <= start {
		return fmt.Errorf("core: empty time slice [%g, %g]", start, end)
	}
	ws, we := v.window.Start, v.window.End
	if reach := maxSliceReach * math.Max(we-ws, 1); start < ws-reach || end > we+reach {
		return fmt.Errorf("core: time slice [%g, %g] lies more than 2^40 window lengths from the trace window [%g, %g]", start, end, ws, we)
	}
	v.slice = aggregation.TimeSlice{Start: start, End: end}
	v.dirty = true
	v.touch()
	return nil
}

// ShiftTimeSlice translates the slice by dt — the animation primitive of
// Figure 9 ("the ability to animate through time a given view"). A shift
// whose result SetTimeSlice would reject (a bound out of reach, or a
// translation so large the width rounds away) is an error and leaves the
// slice unchanged.
func (v *View) ShiftTimeSlice(dt float64) error {
	return v.SetTimeSlice(v.slice.Start+dt, v.slice.End+dt)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// RefreshSource tells the view its underlying data changed — the live
// streaming publisher calls it each tick after appending to the trace.
// It invalidates the aggregator (appended series may carry metrics the
// memoized member lists have not seen; the new epoch recompiles the
// build plan), marks the visual graph dirty and bumps the generation so
// cached renderings expire. The caller must hold whatever lock
// serialises view access (the server's, when shared).
func (v *View) RefreshSource() {
	v.ag.Invalidate()
	v.dirty = true
	v.touch()
}

// Graph returns the visual graph for the current cut, slice and mapping,
// rebuilding it if anything changed and synchronising the layout bodies.
// A graph with the previous graph's structure token (a slice scrub, a
// scale change) has the same node IDs, counts and edges, hence the same
// bodies, charges and springs: the sync would find nothing to do, so it
// is skipped.
func (v *View) Graph() (*vizgraph.Graph, error) {
	if !v.dirty {
		return v.graph, nil
	}
	obsGraphRebuilds.Inc()
	g, err := vizgraph.BuildOpts(v.ag, v.cut, v.mapping, v.slice, vizgraph.Options{Parallelism: v.par, Cache: &v.bcache})
	if err != nil {
		return nil, err
	}
	if v.graph == nil || g.Token() != v.graph.Token() {
		v.syncLayout(g)
	}
	v.graph = g
	v.dirty = false
	return g, nil
}

// MustGraph is Graph for contexts where the view is known valid.
func (v *View) MustGraph() *vizgraph.Graph {
	g, err := v.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

// syncLayout reconciles layout bodies with the nodes of a freshly built
// graph, implementing the smooth transitions.
func (v *View) syncLayout(g *vizgraph.Graph) {
	tree := v.ag.Tree()
	present := make(map[string]bool, len(g.Nodes))
	for _, n := range g.Nodes {
		present[n.ID] = true
	}

	// Old bodies that disappear, indexed by their node's group, for
	// centroid computations.
	var vanishing []*layout.Body
	for _, b := range v.lay.Bodies() {
		if !present[b.ID] {
			vanishing = append(vanishing, b)
		}
	}

	for _, n := range g.Nodes {
		if b := v.lay.Body(n.ID); b != nil {
			if c := float64(n.Count); b.Charge != c {
				b.Charge = c // keep aggregate charge current
				v.perturb(n.ID)
			}
			continue
		}
		v.perturb(n.ID)
		// New node. Aggregation transition: centroid of the vanishing
		// bodies it swallows (same type, group below the new group).
		var swallowed []*layout.Body
		for _, b := range vanishing {
			grp, typ := splitNodeID(b.ID)
			if typ == n.Type && tree.Node(grp) != nil && tree.IsAncestorOrSelf(n.Group, grp) {
				swallowed = append(swallowed, b)
			}
		}
		if len(swallowed) > 0 {
			mustBody(v.lay.AddBody(n.ID, layout.Centroid(swallowed), float64(n.Count)))
			if v.converged {
				if v.swallowed == nil {
					v.swallowed = make(map[string]swallow)
				}
				for _, b := range swallowed {
					v.swallowed[b.ID] = swallow{by: n.ID, pos: b.Pos}
				}
			}
			continue
		}
		// Disaggregation transition: back where the vanishing ancestor
		// body of the same type swallowed it, or near that body.
		var anchor *layout.Body
		for _, b := range vanishing {
			grp, typ := splitNodeID(b.ID)
			if typ == n.Type && tree.Node(grp) != nil && tree.IsAncestorOrSelf(grp, n.Group) {
				anchor = b
				break
			}
		}
		sw, seen := v.swallowed[n.ID]
		switch {
		case anchor != nil && seen && sw.by == anchor.ID:
			mustBody(v.lay.AddBody(n.ID, sw.pos, float64(n.Count)))
			delete(v.swallowed, n.ID)
		case anchor != nil:
			pos := layout.ScatterAround(anchor.Pos, []string{n.ID}, v.lay.Params().SpringLength)[0]
			mustBody(v.lay.AddBody(n.ID, pos, float64(n.Count)))
		default:
			mustBody(v.lay.AddBodyAuto(n.ID, float64(n.Count)))
		}
	}
	// A remembered position whose aggregate is gone without giving it
	// back (swallowed in turn, or a jump across levels) is never used.
	for id, sw := range v.swallowed {
		if !present[sw.by] {
			delete(v.swallowed, id)
		}
	}
	if len(vanishing) > 0 {
		ids := make([]string, len(vanishing))
		for i, b := range vanishing {
			ids[i] = b.ID
		}
		v.lay.RemoveBodies(ids)
	}

	springs := make([]layout.Spring, 0, len(g.Edges))
	for _, e := range g.Edges {
		springs = append(springs, layout.Spring{
			A: e.From, B: e.To,
			Strength: 1 + math.Log10(float64(e.Multiplicity)),
		})
	}
	// Slice scrubbing changes sizes and fills but not the topology: when
	// the spring set is unchanged, skip SetSprings and its adjacency
	// rebuild in the layout.
	if springsEqual(springs, v.lastSprings) {
		return
	}
	// Surviving endpoints of added, removed or re-weighted springs feel a
	// force change: mark them perturbed so the incremental path relaxes
	// them too (the removed side of a vanished spring no longer exists and
	// needs no mark).
	old := make(map[[2]string]float64, len(v.lastSprings))
	for _, s := range v.lastSprings {
		old[[2]string{s.A, s.B}] += s.Strength
	}
	cur := make(map[[2]string]float64, len(springs))
	for _, s := range springs {
		cur[[2]string{s.A, s.B}] += s.Strength
	}
	for k, w := range cur {
		if old[k] != w {
			v.perturb(k[0], k[1])
		}
	}
	for k := range old {
		if _, ok := cur[k]; !ok {
			v.perturb(k[0], k[1])
		}
	}
	if err := v.lay.SetSprings(springs); err != nil {
		panic(err) // nodes and edges come from the same graph
	}
	v.lastSprings = springs
}

func springsEqual(a, b []layout.Spring) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func mustBody(b *layout.Body, err error) {
	if err != nil {
		panic(err)
	}
}

func splitNodeID(id string) (group, typ string) {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '/' {
			return id[:i], id[i+1:]
		}
	}
	return id, ""
}

// Aggregate collapses an interior hierarchy node's active descendants into
// one group, repositioning the layout smoothly.
func (v *View) Aggregate(group string) error {
	if err := v.cut.Aggregate(group); err != nil {
		return err
	}
	v.dirty = true
	v.touch()
	_, err := v.Graph()
	return err
}

// Disaggregate expands an active group into its children.
func (v *View) Disaggregate(group string) error {
	if err := v.cut.Disaggregate(group); err != nil {
		return err
	}
	v.dirty = true
	v.touch()
	_, err := v.Graph()
	return err
}

// SetLevel jumps to a whole hierarchy depth (Figure 8's four views are
// levels 3, 2, 1, 0 of the Grid'5000 hierarchy).
func (v *View) SetLevel(depth int) error {
	if depth < 0 {
		return fmt.Errorf("core: negative level %d", depth)
	}
	v.cut = aggregation.NewLevelCut(v.ag.Tree(), depth)
	v.dirty = true
	v.touch()
	_, err := v.Graph()
	return err
}

// SetScale adjusts one resource type's interactive size-scale slider.
func (v *View) SetScale(typ string, factor float64) error {
	if !v.mapping.SetScale(typ, factor) {
		return fmt.Errorf("core: no mapped type %q or invalid factor %g", typ, factor)
	}
	v.dirty = true
	v.touch()
	_, err := v.Graph()
	return err
}

// SetSegments asks one resource type's nodes to split their fill into
// per-category segments ("<fill metric>:<category>" trace variants, as
// recorded by the simulator's per-application tracing). Pass nil to go
// back to a single fill.
func (v *View) SetSegments(typ string, categories []string) error {
	tm := v.mapping.TypeMapping(typ)
	if tm == nil {
		return fmt.Errorf("core: no mapped type %q", typ)
	}
	tm.SegmentCategories = append([]string(nil), categories...)
	v.dirty = true
	v.touch()
	_, err := v.Graph()
	return err
}

// SetFillAggregation switches how one type's aggregated fill combines
// its members: the paper's capacity-weighted ratio, or the max-member
// mode that keeps saturation visible in aggregated link views (the
// paper's conclusion calls the summed semantics questionable for links).
func (v *View) SetFillAggregation(typ string, mode vizgraph.FillAggregation) error {
	tm := v.mapping.TypeMapping(typ)
	if tm == nil {
		return fmt.Errorf("core: no mapped type %q", typ)
	}
	tm.FillAggregation = mode
	v.dirty = true
	v.touch()
	_, err := v.Graph()
	return err
}

// SetLayoutParams replaces the charge/spring/damping sliders. Force
// parameters move the global equilibrium, so convergence is voided, and
// the positions remembered for disaggregation are forgotten.
func (v *View) SetLayoutParams(p layout.Params) {
	v.lay.SetParams(p)
	v.converged = false
	v.swallowed = nil
	v.touch()
}

// SetParallelism bounds the worker goroutines both the layout step and
// the graph build may use (0 = GOMAXPROCS, 1 = serial). Results are
// bit-for-bit identical at every setting, so this is purely a throughput
// knob.
func (v *View) SetParallelism(n int) {
	p := v.lay.Params()
	p.Parallelism = n
	v.lay.SetParams(p)
	v.par = n
	v.touch()
}

// StepLayout advances the force simulation at most n steps and returns
// the last step's residual in render px (see layout.Residual). A settled
// view takes no step and returns 0. A converged view that has since been
// perturbed steps only the neighbourhood of the bodies the disturbance
// still moves (see stepLocal); a view that never converged, or whose
// convergence was voided, steps every body. Either stops early, and
// settles the view, once the residual is under the view's eps.
func (v *View) StepLayout(n int) float64 {
	if n <= 0 || v.Settled() {
		return 0
	}
	if !v.converged {
		_, res := v.stepGlobal(n)
		return res
	}
	_, res := v.stepLocal(n)
	return res
}

// stepGlobal steps every body at most maxSteps times toward the view's
// eps and records whether that converged.
func (v *View) stepGlobal(maxSteps int) (int, float64) {
	steps, res := v.lay.Run(layout.BarnesHut, maxSteps, v.eps)
	v.converged = res < v.eps
	v.perturbed = nil
	return steps, res
}

// stepLocal is the one local relaxation of a converged, perturbed view:
// RefineLocal steps the neighbourhood of the perturbed bodies at most n
// times against the settled rest. If it stops short of n it converged
// and the view settles. Otherwise only the bodies the disturbance still
// moves, or still speeds up (see layout.Moving), stay perturbed: their
// neighbourhoods are the next call's active set, so a region that has
// calmed down drops out while another still relaxes, and the active set
// follows a ripple outward. A perturbation that touches every body steps
// every body, through the same kernel as a global step.
func (v *View) stepLocal(n int) (int, float64) {
	seeds := v.seeds()
	steps, res := v.lay.RefineLocal(seeds, relayoutHops, n, v.eps)
	v.perturbed = nil
	if steps == n {
		// Out of steps (or converged on the very last one, which the next
		// call confirms at the cost of a step or two).
		v.perturb(v.lay.Moving(seeds, relayoutHops, v.eps)...)
	}
	return steps, res
}

// seeds returns the perturbed node IDs.
func (v *View) seeds() []string {
	ids := make([]string, 0, len(v.perturbed))
	for id := range v.perturbed {
		ids = append(ids, id)
	}
	return ids
}

// relayoutHops bounds the BFS neighborhood the incremental path relaxes
// around each perturbed node: the node, its spring neighbours, and
// theirs. Wide enough to absorb an aggregate/disaggregate ripple, small
// enough that the active set stays a sliver of a large graph.
const relayoutHops = 2

// Stabilize settles the layout below eps, a residual in render px (see
// layout.Residual), or gives up after maxSteps, returning the steps taken
// at full graph size, so steps < maxSteps means converged. eps <= 0 keeps
// the view's current bound (0.1 render px unless an earlier call set
// another); the bound given is the one StepLayout settles at afterwards,
// and a tighter one than the view settled at voids its convergence. A
// settled view takes no step. The first call on a view is the cold
// start: the multilevel V-cycle coarsens along the aggregation hierarchy,
// solves the coarse graph and refines down, spending at most maxSteps on
// the finest level. Later calls refine in place: on a layout that has
// converged and since been perturbed, StepLayout's local relaxation runs
// with the whole budget; otherwise every body is stepped. LastRelayout
// reports which path ran.
func (v *View) Stabilize(maxSteps int, eps float64) int {
	if maxSteps <= 0 {
		return 0
	}
	v.setEps(eps)
	if v.Settled() {
		return 0
	}
	if v.lastRelayout.Mode == "" {
		mp := layout.DefaultMultilevelParams()
		mp.Eps = v.eps
		mp.FinalMaxSteps = maxSteps
		stats := v.stabilizeMultilevel(mp)
		if len(stats.Levels) == 0 {
			return 0
		}
		return stats.Levels[len(stats.Levels)-1].Steps
	}
	if v.converged {
		obsRelayoutIncremental.Inc()
		active := len(v.lay.Neighborhood(v.seeds(), relayoutHops))
		steps, res := v.stepLocal(maxSteps)
		v.lastRelayout = RelayoutInfo{Mode: "incremental", Steps: steps, Active: active, Residual: res}
		return steps
	}
	obsRelayoutCold.Inc()
	steps, res := v.stepGlobal(maxSteps)
	v.lastRelayout = RelayoutInfo{Mode: "cold", Steps: steps, Residual: res}
	return steps
}

// setEps makes eps, when positive, the residual bound the view settles
// at. A bound tighter than the one the view converged at voids that
// convergence.
func (v *View) setEps(eps float64) {
	if eps <= 0 {
		return
	}
	if eps < v.eps {
		v.converged = false
	}
	v.eps = eps
}

// StabilizeMultilevel forces a cold V-cycle with the default step
// budgets, whatever the layout's state, to the residual bound eps (render
// px), which StepLayout then settles at. eps <= 0 keeps the view's
// current bound, as in Stabilize.
func (v *View) StabilizeMultilevel(eps float64) layout.MultilevelStats {
	v.setEps(eps)
	mp := layout.DefaultMultilevelParams()
	mp.Eps = v.eps
	return v.stabilizeMultilevel(mp)
}

// stabilizeMultilevel runs the V-cycle with the aggregation tree as the
// coarsening hierarchy (heavy-edge matching where it is exhausted).
func (v *View) stabilizeMultilevel(mp layout.MultilevelParams) layout.MultilevelStats {
	mp.Parent = v.layoutParentFunc()
	stats := v.lay.RunMultilevel(mp)
	v.converged = stats.Converged
	v.perturbed = nil
	v.swallowed = nil // a new equilibrium: remembered positions are void
	v.lastRelayout = RelayoutInfo{Mode: "multilevel", Steps: stats.TotalSteps, Residual: stats.Residual}
	v.touch() // every position changed: cached renderings are stale
	return stats
}

// layoutParentFunc adapts the aggregation tree to the layout's coarsening
// interface: a body "group/type" coarsens to "parentGroup/type", so the
// coarse graph at each level is exactly the aggregated view one level up.
func (v *View) layoutParentFunc() layout.ParentFunc {
	tree := v.ag.Tree()
	return func(id string) (string, bool) {
		grp, typ := splitNodeID(id)
		n := tree.Node(grp)
		if n == nil || n.Parent == "" {
			return "", false
		}
		return vizgraph.NodeID(n.Parent, typ), true
	}
}

// MoveNode drags a node to a position; its neighbourhood follows through
// the springs on subsequent steps. pin keeps it there.
func (v *View) MoveNode(id string, x, y float64, pin bool) error {
	b := v.lay.Body(id)
	if b == nil {
		return fmt.Errorf("core: unknown node %q", id)
	}
	// The members a dragged aggregate swallowed come back where it takes
	// them.
	shift := layout.Point{X: x, Y: y}.Sub(b.Pos)
	for m, sw := range v.swallowed {
		if sw.by == id {
			v.swallowed[m] = swallow{by: id, pos: sw.pos.Add(shift)}
		}
	}
	if pin {
		v.lay.Pin(id, layout.Point{X: x, Y: y})
	} else {
		v.lay.Move(id, layout.Point{X: x, Y: y})
	}
	v.perturb(id)
	v.touch()
	return nil
}

// UnpinNode releases a pinned node.
func (v *View) UnpinNode(id string) error {
	if !v.lay.Unpin(id) {
		return fmt.Errorf("core: unknown node %q", id)
	}
	v.perturb(id)
	v.touch()
	return nil
}
