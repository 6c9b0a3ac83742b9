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
// with Barnes-Hut, leaving everything outside it untouched. It returns the
// steps taken and the final active-set residual (0 when the active set is
// empty).
func (l *Layout) RefineLocal(seeds []string, hops, maxSteps int, eps float64) (int, float64) {
	active := l.Neighborhood(seeds, hops)
	obsActiveSet.Set(float64(len(active)))
	if len(active) == 0 {
		return 0, 0
	}
	var d float64
	for i := 0; i < maxSteps; i++ {
		d = l.step(BarnesHut, active)
		obsLocalSteps.Inc()
		if d < eps {
			return i + 1, d
		}
	}
	return maxSteps, d
}
