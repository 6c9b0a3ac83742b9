package layout

import (
	"sort"

	"viva/internal/obs"
)

// Incremental re-layout: when an interactive aggregate/disaggregate (or a
// fault burst) perturbs a handful of nodes in an otherwise converged
// layout, restarting the global solver repeats work the layout already
// paid for — every settled body gets re-stepped for dozens of iterations
// just to confirm it does not move. Instead, RefineLocal grows a
// BFS-bounded neighborhood around the perturbed bodies and steps only
// that active set. Forces on active bodies are still computed against the
// FULL graph (the quadtree spans every body, springs to settled
// neighbours pull normally), so the active set relaxes into the real
// surrounding field; the settled remainder simply is not re-integrated.
// Cost per step is proportional to the active set, not the graph.
//
// The active set runs through the same step kernel as Step, so
// determinism holds by the same argument: per-body accumulation never
// depends on the worker count, and the active set is a sorted, purely
// graph-derived index list.

var (
	obsActiveSet = obs.Default.Gauge("viva_layout_active_bodies",
		"Active-set size of the last incremental refinement.")
	obsLocalSteps = obs.Default.Counter("viva_layout_local_steps_total",
		"Incremental (active-set) layout steps taken.")
)

// Neighborhood returns the indices of all bodies within hops spring-hops
// of the seed IDs, sorted ascending. Unknown seeds are ignored; hops < 0
// means seeds only.
func (l *Layout) Neighborhood(seeds []string, hops int) []int32 {
	if l.adjDirty || len(l.adj) != len(l.bodies) {
		l.buildAdjacency()
	}
	visited := make([]bool, len(l.bodies))
	var frontier []int32
	for _, id := range seeds {
		if b := l.index[id]; b != nil && !visited[b.idx] {
			visited[b.idx] = true
			frontier = append(frontier, int32(b.idx))
		}
	}
	active := append([]int32(nil), frontier...)
	for h := 0; h < hops && len(frontier) > 0; h++ {
		var next []int32
		for _, i := range frontier {
			for _, e := range l.adj[i] {
				si := e
				if si < 0 {
					si = -si
				}
				s := &l.springs[si-1]
				var nb *Body
				if e > 0 {
					nb = l.index[s.B]
				} else {
					nb = l.index[s.A]
				}
				if nb == nil || visited[nb.idx] {
					continue
				}
				visited[nb.idx] = true
				next = append(next, int32(nb.idx))
			}
		}
		active = append(active, next...)
		frontier = next
	}
	sort.Slice(active, func(i, j int) bool { return active[i] < active[j] })
	return active
}

// RefineLocal relaxes the BFS neighborhood of the seed bodies in place
// with Barnes-Hut until every active body is at rest at eps (see Moving)
// or maxSteps is reached, leaving everything outside it untouched. It
// returns the steps taken and the final active-set Residual (0 when the
// active set is empty); steps < maxSteps means it converged.
func (l *Layout) RefineLocal(seeds []string, hops, maxSteps int, eps float64) (int, float64) {
	active := l.Neighborhood(seeds, hops)
	obsActiveSet.Set(float64(len(active)))
	if len(active) == 0 {
		return 0, 0
	}
	var d float64
	for i := 0; i < maxSteps; i++ {
		_, d = l.step(BarnesHut, active)
		obsLocalSteps.Inc()
		if d < eps && !l.anyMoving(active, eps) {
			return i + 1, d
		}
	}
	return maxSteps, d
}

// Moving returns the IDs of the bodies within hops spring-hops of the
// seeds that their last step left in motion at eps render px (see
// Residual), in body order. After a RefineLocal that ran out of steps
// these are the seeds of the next one.
func (l *Layout) Moving(seeds []string, hops int, eps float64) []string {
	scale := l.Residual(1)
	var out []string
	for _, i := range l.Neighborhood(seeds, hops) {
		if l.moving(i, eps, scale) {
			out = append(out, l.bodies[i].ID)
		}
	}
	return out
}

// anyMoving reports whether any of the active bodies is Moving.
func (l *Layout) anyMoving(active []int32, eps float64) bool {
	scale := l.Residual(1)
	for _, i := range active {
		if l.moving(i, eps, scale) {
			return true
		}
	}
	return false
}

// moving reports whether body i, as its last step left it, is in motion
// at eps render px (eps/scale layout units): its step moved it that far,
// or the force it felt would, at the terminal velocity that force
// reaches under damping, |F|·dt²·damping/(1−damping). A small step alone
// is no sign of rest: a body released from rest, or at the turning point
// of a swing, barely moves yet is far from equilibrium. A pinned body is
// at rest.
func (l *Layout) moving(i int32, eps, scale float64) bool {
	b := l.bodies[i]
	if b.Pinned {
		return false
	}
	lim := eps / scale
	if b.disp >= lim {
		return true
	}
	dt := l.bodyTimeStep(l.params.TimeStep, int(i))
	damp := l.params.Damping
	return b.force.Norm()*dt*dt*damp >= lim*(1-damp)
}
