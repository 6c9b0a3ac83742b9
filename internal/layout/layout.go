// Package layout implements the paper's dynamic, interactive graph layout
// (Sections 3.3 and 4.2): a force-directed placement where every node
// carries an electrical charge (Coulomb repulsion), connected nodes pull
// on each other through springs (Hooke attraction), and a damping factor
// controls convergence speed. Two force engines are provided: the basic
// O(n²) all-pairs algorithm and the Barnes-Hut quadtree approximation in
// O(n log n) the paper adopts for scalability.
//
// The layout is incremental: bodies can be added, removed, pinned and
// dragged while the simulation keeps iterating, so the picture evolves
// smoothly when the analyst aggregates or disaggregates groups of nodes.
// An aggregated body's charge is the sum of the charges it replaces.
package layout

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"viva/internal/obs"
)

// Self-observation of the interactive hot path: step throughput, the
// convergence residual the settling heuristics watch, and the shape of
// the Barnes-Hut quadtree (its node count and depth govern the cost of
// every force pass).
var (
	obsSteps = obs.Default.Counter("viva_layout_steps_total",
		"Force-simulation steps advanced.")
	obsResidual = obs.Default.Gauge("viva_layout_residual",
		"Maximum body displacement of the last step in render px (convergence residual, see Residual).")
	obsBodies = obs.Default.Gauge("viva_layout_bodies",
		"Bodies in the layout at the last step.")
	obsQuadNodes = obs.Default.Gauge("viva_layout_quadtree_nodes",
		"Non-empty quadtree cells of the last Barnes-Hut pass.")
	obsQuadDepth = obs.Default.Gauge("viva_layout_quadtree_depth",
		"Maximum quadtree depth of the last Barnes-Hut pass.")
	obsForceTerms = obs.Default.Counter("viva_layout_force_terms_total",
		"Repulsion terms summed: one per accepted cell per Barnes-Hut body walk, one per body pair of a naive pass.")
)

// Point is a position or vector in the 2D layout plane.
type Point struct {
	X, Y float64
}

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p − q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by s.
func (p Point) Scale(s float64) Point { return Point{p.X * s, p.Y * s} }

// Norm returns the Euclidean norm of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Params are the analyst-facing knobs of the force model (the sliders of
// Section 4.2).
type Params struct {
	// Charge scales the Coulomb repulsion between every pair of bodies;
	// higher values spread the nodes apart.
	Charge float64
	// Spring scales the Hooke attraction along edges; higher values pull
	// connected nodes together.
	Spring float64
	// SpringLength is the rest length of the springs.
	SpringLength float64
	// Damping in [0, 1) multiplies velocities each step: low values stop
	// the motion quickly, values near 1 let the layout glide.
	Damping float64
	// Theta is the Barnes-Hut opening angle; 0 degenerates to exact
	// all-pairs, typical values are 0.5–1.0.
	Theta float64
	// TimeStep is the integration step.
	TimeStep float64
	// MaxVelocity caps per-step motion, keeping the integration stable
	// when charges collide.
	MaxVelocity float64
	// Parallelism is the maximum number of worker goroutines a Step may
	// use for the force passes. 0 (the default) means GOMAXPROCS; 1 forces
	// the serial path. The effective worker count is further capped so
	// each worker gets at least parallelGrain bodies — tiny layouts never
	// pay goroutine overhead. Results are bit-for-bit identical at every
	// setting (see DESIGN.md, "Concurrency model & determinism").
	Parallelism int
}

// DefaultParams returns a stable, middle-of-the-sliders configuration.
func DefaultParams() Params {
	return Params{
		Charge:       1000,
		Spring:       0.05,
		SpringLength: 60,
		Damping:      0.85,
		Theta:        0.7,
		TimeStep:     0.5,
		MaxVelocity:  200,
	}
}

// Body is one laid-out node.
type Body struct {
	ID     string
	Pos    Point
	Vel    Point
	Charge float64
	// Pinned bodies ignore forces (the analyst dragged them and wants
	// them to stay, or an algorithm anchors them).
	Pinned bool

	force Point   // the force of the last step that integrated it
	disp  float64 // displacement of the last step that integrated it
	idx   int     // position in Layout.bodies, kept current by add/remove
}

// Spring connects two bodies.
type Spring struct {
	A, B string
	// Strength multiplies Params.Spring for this edge (use e.g. the edge
	// multiplicity of an aggregated bundle).
	Strength float64
}

// Layout is a running force simulation.
type Layout struct {
	params  Params
	bodies  []*Body
	index   map[string]*Body
	springs []Spring

	// Reused per-step scratch state (see quadtree.go and the spring
	// adjacency below): none of it escapes a Step call.
	tree     quadTree
	adj      [][]int32  // body idx -> springs touching it, ±(spring index+1)
	ends     [][2]int32 // spring index -> body indices of its A and B ends
	adjDirty bool
	// stiff[i] sums the strengths of body i's incident springs (rebuilt
	// with the adjacency). The integrator uses it to clamp the local time
	// step of hub bodies whose aggregate spring stiffness would make the
	// explicit update oscillate forever at the velocity cap (a backbone
	// link with hundreds of attached host links, e.g.) — see integrate.
	stiff []float64
	all   []int32 // identity index list, see allIndices
	// claim is the next unclaimed position of the active list during a
	// parallel pass (see forBodies); passes never overlap.
	claim atomic.Int64
}

// New creates an empty layout.
func New(params Params) *Layout {
	return &Layout{params: params, index: make(map[string]*Body)}
}

// Params returns the current parameters.
func (l *Layout) Params() Params { return l.params }

// SetParams replaces the force parameters (slider movement).
func (l *Layout) SetParams(p Params) { l.params = p }

// Bodies returns the bodies in insertion order. The slice is shared; do
// not reorder it.
func (l *Layout) Bodies() []*Body { return l.bodies }

// Body returns a body by ID, or nil.
func (l *Layout) Body(id string) *Body { return l.index[id] }

// Len returns the number of bodies.
func (l *Layout) Len() int { return len(l.bodies) }

// AddBody inserts a body. If no position is given (zero Point and
// deterministic placement wanted), use AddBodyAuto instead. Adding an
// existing ID is an error.
func (l *Layout) AddBody(id string, pos Point, charge float64) (*Body, error) {
	if _, ok := l.index[id]; ok {
		return nil, fmt.Errorf("layout: body %q already exists", id)
	}
	b := &Body{ID: id, Pos: pos, Charge: charge, idx: len(l.bodies)}
	l.bodies = append(l.bodies, b)
	l.index[id] = b
	return b, nil
}

// AddBodyAuto inserts a body at a deterministic pseudo-random position
// derived from its ID, on a disc whose radius grows with the body count —
// a reproducible seed layout.
func (l *Layout) AddBodyAuto(id string, charge float64) (*Body, error) {
	h := fnv64(id)
	angle := float64(h%3600) / 3600 * 2 * math.Pi
	radius := 40 + float64(len(l.bodies))*2 + float64((h/3600)%100)
	pos := Point{X: radius * math.Cos(angle), Y: radius * math.Sin(angle)}
	return l.AddBody(id, pos, charge)
}

// RemoveBodies deletes a batch of bodies and every spring touching any of
// them in one pass over the body and spring slices — the aggregation
// transitions of core.View remove whole groups at once, and removing them
// one ID at a time would be quadratic. Insertion order of the survivors
// is preserved. Returns how many of the IDs existed.
func (l *Layout) RemoveBodies(ids []string) int {
	doomed := make(map[string]bool, len(ids))
	removed := 0
	for _, id := range ids {
		if _, ok := l.index[id]; ok && !doomed[id] {
			doomed[id] = true
			removed++
			delete(l.index, id)
		}
	}
	if removed == 0 {
		return 0
	}
	bodies := l.bodies[:0]
	for _, b := range l.bodies {
		if !doomed[b.ID] {
			b.idx = len(bodies)
			bodies = append(bodies, b)
		}
	}
	for i := len(bodies); i < len(l.bodies); i++ {
		l.bodies[i] = nil // release the removed tail for GC
	}
	l.bodies = bodies
	springs := l.springs[:0]
	for _, s := range l.springs {
		if !doomed[s.A] && !doomed[s.B] {
			springs = append(springs, s)
		}
	}
	l.springs = springs
	l.adjDirty = true
	return removed
}

// SetSprings replaces the edge set. Unknown endpoints are rejected.
func (l *Layout) SetSprings(springs []Spring) error {
	for _, s := range springs {
		if l.index[s.A] == nil || l.index[s.B] == nil {
			return fmt.Errorf("layout: spring %s-%s references unknown body", s.A, s.B)
		}
	}
	l.springs = append(l.springs[:0:0], springs...)
	l.adjDirty = true
	return nil
}

// Springs returns the current springs.
func (l *Layout) Springs() []Spring {
	out := make([]Spring, len(l.springs))
	copy(out, l.springs)
	return out
}

// Pin fixes a body at a position (analyst drag-and-hold). Returns false
// for unknown IDs.
func (l *Layout) Pin(id string, pos Point) bool {
	b := l.index[id]
	if b == nil {
		return false
	}
	b.Pos = pos
	b.Vel = Point{}
	b.Pinned = true
	return true
}

// Unpin releases a pinned body back to the simulation.
func (l *Layout) Unpin(id string) bool {
	b := l.index[id]
	if b == nil {
		return false
	}
	b.Pinned = false
	return true
}

// Move teleports a body without pinning it: its neighbourhood will follow
// through the springs on the next steps ("whenever a node is moved by the
// analyst, all his neighbors seamlessly follow").
func (l *Layout) Move(id string, pos Point) bool {
	b := l.index[id]
	if b == nil {
		return false
	}
	b.Pos = pos
	b.Vel = Point{}
	return true
}

// Algorithm selects the repulsion engine.
type Algorithm int

const (
	// Naive computes exact all-pairs repulsion in O(n²), serially: the
	// exact-force oracle Barnes-Hut is checked against, and the baseline
	// of the scale experiment.
	Naive Algorithm = iota
	// BarnesHut approximates far-field repulsion through a quadtree in
	// O(n log n) — the paper's choice for large graphs.
	BarnesHut
)

// Step advances the simulation by one time step with the given engine and
// returns the maximum displacement in layout units; Residual converts it
// to the convergence measure.
func (l *Layout) Step(algo Algorithm) float64 {
	d, _ := l.stepAll(algo)
	return d
}

// stepAll is Step returning both measures of step.
func (l *Layout) stepAll(algo Algorithm) (disp, residual float64) {
	disp, residual = l.step(algo, l.allIndices())
	obsSteps.Inc()
	obsBodies.Set(float64(len(l.bodies)))
	return disp, residual
}

// Run iterates until the residual (see Residual) falls below eps or
// maxSteps is reached, returning the number of steps taken and the last
// step's residual.
func (l *Layout) Run(algo Algorithm, maxSteps int, eps float64) (int, float64) {
	var r float64
	for i := 0; i < maxSteps; i++ {
		_, r = l.stepAll(algo)
		if r < eps {
			return i + 1, r
		}
	}
	return maxSteps, r
}

// renderSide is the side in pixels of the square a rendering fits the
// layout's bounding box into (render.DefaultOptions draws 800 px wide).
const renderSide = 800

// Residual is the one convergence measure: a step's max displacement d,
// in layout units, as render pixels — d × min(1, renderSide / the
// bounding box's longer side). A large layout shrinks to fit the canvas,
// so its steps shrink on screen too; a small one is never magnified, and
// layouts that fit in renderSide px measure exactly d. Run, RefineLocal,
// each V-cycle level and the viva_layout_residual gauge all compare it
// with eps.
func (l *Layout) Residual(d float64) float64 {
	lo, hi := l.BoundingBox()
	if side := math.Max(hi.X-lo.X, hi.Y-lo.Y); side > renderSide {
		return d * (renderSide / side)
	}
	return d
}

// allIndices returns the identity index list 0..n-1 over the bodies,
// cached so a global Step allocates nothing.
func (l *Layout) allIndices() []int32 {
	for i := len(l.all); i < len(l.bodies); i++ {
		l.all = append(l.all, int32(i))
	}
	return l.all[:len(l.bodies)]
}

// step is the one step kernel: it advances the active bodies (sorted,
// deduplicated body indices — every body for Step and Run, a
// neighborhood for RefineLocal) one time step, computing their forces
// against the entire graph, and returns the max displacement over the
// active set, in layout units and as a Residual. Bodies outside the set
// are neither pushed nor integrated. Naive always steps every body: it is
// only reached through Step and Run.
func (l *Layout) step(algo Algorithm, active []int32) (disp, residual float64) {
	span := obs.StartSpan(obs.StageLayout)
	if l.adjDirty || len(l.adj) != len(l.bodies) {
		l.buildAdjacency() // springs and integrate need fresh adjacency
	}
	for _, i := range active {
		l.bodies[i].force = Point{}
	}
	switch algo {
	case BarnesHut:
		l.repelBarnesHut(active)
	default:
		l.repelNaive()
	}
	l.applySprings(active)
	disp = l.integrate(active)
	residual = l.Residual(disp)
	span.End()
	obsResidual.Set(residual)
	return disp, residual
}

// parallelGrain is the minimum number of bodies per worker: below it the
// goroutine fan-out costs more than the force arithmetic it spreads.
const parallelGrain = 128

// workersFor sizes the fan-out for a pass over n active bodies:
// min(Parallelism or GOMAXPROCS, n/parallelGrain), at least 1.
func (l *Layout) workersFor(n int) int {
	p := l.params.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if max := n / parallelGrain; p > max {
		p = max
	}
	if p < 1 {
		p = 1
	}
	return p
}

// claimChunk is how many active bodies a worker of a parallel pass
// claims at a time.
const claimChunk = 64

// forBodies runs pass over the active list on the workers workersFor
// sizes, claimChunk bodies at a time (see fan).
func (l *Layout) forBodies(active []int32, pass func(l *Layout, active []int32, lo, hi int)) {
	l.fan(l.workersFor(len(active)), active, len(active), claimChunk, pass)
}

// fan runs pass over the positions [0, n) on w workers. With a single
// worker pass runs inline on the caller's goroutine over the whole
// range; otherwise the workers claim fixed chunk-sized ranges off an
// atomic counter until the range is exhausted, so a worker that finishes
// early takes more of the work instead of idling. pass must only write
// state owned by its own positions, which is what makes the fan-out
// race-free — and since a body's force depends only on the positions
// read, never on which worker or range computed it, the result is
// bit-identical however the ranges fall. pass is a method expression
// rather than a closure so the serial step allocates nothing.
func (l *Layout) fan(w int, active []int32, n, chunk int, pass func(l *Layout, active []int32, lo, hi int)) {
	if w == 1 {
		pass(l, active, 0, n)
		return
	}
	l.claim.Store(0)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				lo := int(l.claim.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				pass(l, active, lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}

// repelNaive computes the exact all-pairs repulsion over every body with
// the classic i<j symmetric loop (each pair once), and counts its pair
// evaluations as force terms.
func (l *Layout) repelNaive() {
	c := l.params.Charge
	var terms uint64
	for i, a := range l.bodies {
		rest := l.bodies[i+1:]
		for _, b := range rest {
			f := coulomb(a, b, c)
			a.force = a.force.Add(f)
			b.force = b.force.Sub(f)
		}
		terms += uint64(len(rest))
	}
	obsForceTerms.Add(terms)
}

// coulomb returns the force pushing a away from b.
func coulomb(a, b *Body, c float64) Point {
	d := a.Pos.Sub(b.Pos)
	dist := d.Norm()
	if dist < 1e-3 {
		// Coincident bodies: push apart along a deterministic direction
		// derived from their IDs.
		angle := float64(fnv64(a.ID+b.ID)%360) / 360 * 2 * math.Pi
		d = Point{math.Cos(angle), math.Sin(angle)}
		dist = 1e-3
	}
	mag := c * a.Charge * b.Charge / (dist * dist)
	return d.Scale(mag / dist)
}

// springForce returns the Hooke force of a spring of the given strength
// on its end a (end b receives the exact negation). Zero for degenerate
// springs.
func springForce(a, b *Body, strength, k, rest float64) (Point, bool) {
	d := b.Pos.Sub(a.Pos)
	dist := d.Norm()
	if dist < 1e-6 {
		return Point{}, false
	}
	if strength <= 0 {
		strength = 1
	}
	mag := k * strength * (dist - rest)
	return d.Scale(mag / dist), true
}

// buildAdjacency rebuilds the spring→body adjacency: for each body, the
// springs touching it in ascending spring order, encoded ±(index+1) for
// the A/B endpoint; and for each spring, its end bodies' indices, so the
// spring pass never looks a body up by ID. Rebuilt only when
// SetSprings/RemoveBodies changed the edge set or bodies were added since
// the last build.
func (l *Layout) buildAdjacency() {
	for i := range l.adj {
		l.adj[i] = l.adj[i][:0]
	}
	for len(l.adj) < len(l.bodies) {
		l.adj = append(l.adj, nil)
	}
	l.adj = l.adj[:len(l.bodies)]
	if cap(l.stiff) < len(l.bodies) {
		l.stiff = make([]float64, len(l.bodies))
	}
	l.stiff = l.stiff[:len(l.bodies)]
	for i := range l.stiff {
		l.stiff[i] = 0
	}
	l.ends = slices.Grow(l.ends[:0], len(l.springs))[:len(l.springs)]
	for si := range l.springs {
		s := &l.springs[si]
		a, b := l.index[s.A], l.index[s.B]
		if a == nil || b == nil {
			continue
		}
		l.ends[si] = [2]int32{int32(a.idx), int32(b.idx)}
		l.adj[a.idx] = append(l.adj[a.idx], int32(si+1))
		l.adj[b.idx] = append(l.adj[b.idx], int32(-(si + 1)))
		w := s.Strength
		if w <= 0 {
			w = 1
		}
		l.stiff[a.idx] += w
		l.stiff[b.idx] += w
	}
	l.adjDirty = false
}

// applySprings accumulates the Hooke attractions on the active bodies:
// each pulls its own incident springs from the prebuilt adjacency, so
// every write stays on the worker's own shard. Per body the terms are
// added in ascending spring order — exactly the sequence a single walk of
// the spring list would apply — so results are identical at every
// Parallelism. Springs bridging to an inactive body apply one-sidedly:
// that body is not integrated, so its force is never read.
func (l *Layout) applySprings(active []int32) {
	if len(l.springs) > 0 {
		l.forBodies(active, (*Layout).springShard)
	}
}

// springShard is applySprings over active[lo:hi].
func (l *Layout) springShard(active []int32, lo, hi int) {
	k := l.params.Spring
	rest := l.params.SpringLength
	for m := lo; m < hi; m++ {
		i := active[m]
		b := l.bodies[i]
		f := b.force
		for _, e := range l.adj[i] {
			si := e
			if si < 0 {
				si = -si
			}
			ends := l.ends[si-1]
			sf, ok := springForce(l.bodies[ends[0]], l.bodies[ends[1]], l.springs[si-1].Strength, k, rest)
			if !ok {
				continue
			}
			if e > 0 {
				f = f.Add(sf)
			} else {
				f = f.Sub(sf)
			}
		}
		b.force = f
	}
}

// bodyTimeStep clamps the integration step of one body by its aggregate
// spring stiffness k_i = Spring · Σ incident strengths: the symplectic
// Euler update is only stable while dt·√k < ~2, and a hub body (a
// backbone link with hundreds of attached host links) can exceed that by
// an order of magnitude with the default TimeStep — it then chatters at
// the velocity cap forever and the layout never converges. Ordinary
// bodies (dt²·k ≤ 1) keep the exact global time step, bit for bit.
func (l *Layout) bodyTimeStep(dt float64, i int) float64 {
	if i >= len(l.stiff) {
		return dt
	}
	if k := l.params.Spring * l.stiff[i]; k*dt*dt > 1 {
		return 1 / math.Sqrt(k)
	}
	return dt
}

// integrate advances the active bodies (ascending index order) by their
// accumulated forces and returns the largest displacement.
func (l *Layout) integrate(active []int32) float64 {
	dt := l.params.TimeStep
	damp := l.params.Damping
	maxV := l.params.MaxVelocity
	var maxDisp float64
	for _, i := range active {
		b := l.bodies[i]
		if b.Pinned {
			b.Vel = Point{}
			b.disp = 0
			continue
		}
		dtb := l.bodyTimeStep(dt, int(i))
		b.Vel = b.Vel.Add(b.force.Scale(dtb)).Scale(damp)
		if v := b.Vel.Norm(); maxV > 0 && v > maxV {
			b.Vel = b.Vel.Scale(maxV / v)
		}
		delta := b.Vel.Scale(dtb)
		b.Pos = b.Pos.Add(delta)
		b.disp = delta.Norm()
		if b.disp > maxDisp {
			maxDisp = b.disp
		}
	}
	return maxDisp
}

// Snapshot captures every body's position.
func (l *Layout) Snapshot() map[string]Point {
	out := make(map[string]Point, len(l.bodies))
	for _, b := range l.bodies {
		out[b.ID] = b.Pos
	}
	return out
}

// MeanDisplacement measures how far the bodies common to two snapshots
// moved — the smoothness metric for aggregation transitions.
func MeanDisplacement(a, b map[string]Point) float64 {
	var sum float64
	n := 0
	ids := make([]string, 0, len(a))
	for id := range a {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if q, ok := b[id]; ok {
			sum += a[id].Sub(q).Norm()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// BoundingBox returns the min and max corners of the current layout.
func (l *Layout) BoundingBox() (min, max Point) {
	if len(l.bodies) == 0 {
		return Point{}, Point{}
	}
	min = l.bodies[0].Pos
	max = l.bodies[0].Pos
	for _, b := range l.bodies[1:] {
		min.X = math.Min(min.X, b.Pos.X)
		min.Y = math.Min(min.Y, b.Pos.Y)
		max.X = math.Max(max.X, b.Pos.X)
		max.Y = math.Max(max.Y, b.Pos.Y)
	}
	return min, max
}

// Centroid returns the charge-weighted centroid of the given bodies —
// where an aggregate node should appear for a smooth transition.
func Centroid(bodies []*Body) Point {
	var sum Point
	var w float64
	for _, b := range bodies {
		c := effCharge(b.Charge)
		sum = sum.Add(b.Pos.Scale(c))
		w += c
	}
	if w == 0 {
		return Point{}
	}
	return sum.Scale(1 / w)
}

// ScatterAround returns n deterministic positions jittered around a
// center — where the children of a disaggregated node should appear.
func ScatterAround(center Point, ids []string, radius float64) []Point {
	out := make([]Point, len(ids))
	for i, id := range ids {
		h := fnv64(id)
		angle := float64(h%3600) / 3600 * 2 * math.Pi
		r := radius * (0.5 + float64((h/3600)%100)/200)
		out[i] = center.Add(Point{r * math.Cos(angle), r * math.Sin(angle)})
	}
	return out
}

// fnv64 is the FNV-1a hash, used for deterministic pseudo-random
// placement.
func fnv64(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
