package layout

import (
	"fmt"
	"math"
	"sync"

	"viva/internal/obs"
)

// Multilevel layout: the algorithmic answer to Barnes-Hut flattening out
// at datacenter scale. One force step at n=20k costs ~40 ms whatever the
// worker count, so convergence from a cold seed — hundreds of steps —
// takes tens of seconds. The multilevel scheme does almost all of that
// convergence work on graphs orders of magnitude smaller: coarsen the
// graph level by level (along the platform hierarchy when the caller has
// one, by heavy-edge matching otherwise), run the existing engine to
// convergence on the coarsest graph (cheap: tens of bodies), then walk
// back down — interpolate each finer level's positions from its coarse
// parents and refine with a small step budget. Near the bottom the layout
// starts already near equilibrium, so the expensive fine levels need tens
// of steps instead of hundreds.
//
// Every stage is deterministic at any Parallelism: coarsening is a pure
// function of the fine graph (coarsen.go), interpolation jitter derives
// from body IDs, and refinement uses the bit-for-bit deterministic Step.

// Self-observation: which level the V-cycle is refining, and per-level
// step/residual series so multilevel progress is visible in /metrics and
// /api/obs/debug while a large layout converges.
var (
	obsMLLevel = obs.Default.Gauge("viva_layout_level",
		"Multilevel V-cycle level currently refining (0 = finest).")
	obsMLLevels = obs.Default.Gauge("viva_layout_levels",
		"Coarsening levels built by the last multilevel run (including the finest).")

	mlLevelMu        sync.Mutex
	mlLevelSteps     = map[int]*obs.Counter{}
	mlLevelResiduals = map[int]*obs.Gauge{}
)

// mlLevelObs returns the lazily registered per-level series. Levels are a
// small bounded vocabulary (at most maxLevels), so the label cardinality
// stays trivial.
func mlLevelObs(level int) (*obs.Counter, *obs.Gauge) {
	mlLevelMu.Lock()
	defer mlLevelMu.Unlock()
	c, ok := mlLevelSteps[level]
	if !ok {
		c = obs.Default.Counter(
			fmt.Sprintf("viva_layout_level_steps_total{level=%q}", fmt.Sprint(level)),
			"Force steps spent refining each multilevel level (0 = finest).")
		mlLevelSteps[level] = c
	}
	g, ok := mlLevelResiduals[level]
	if !ok {
		g = obs.Default.Gauge(
			fmt.Sprintf("viva_layout_level_residual{level=%q}", fmt.Sprint(level)),
			"Residual each multilevel level reached when its refinement ended (0 = finest).")
		mlLevelResiduals[level] = g
	}
	return c, g
}

// The V-cycle's fixed shape.
const (
	// MultilevelMinBodies stops coarsening once a level is at most this
	// small; the coarsest graph is solved to convergence directly.
	MultilevelMinBodies = 32
	// maxLevels bounds the level chain.
	maxLevels = 24
	// coarseMaxSteps is the step budget for solving the coarsest level
	// when it is not the finest one; it is cheap there, so it is
	// generous.
	coarseMaxSteps = 500
	// levelMaxSteps is the refinement budget per intermediate level.
	// Intermediate levels are cheap relative to the finest — an 8×
	// coarsening costs ~1/8 per step — and letting them actually reach
	// Eps is what keeps the finest level's budget small, so it is
	// generous; settled levels stop early on Eps anyway.
	levelMaxSteps = 400
	// jitterFrac scatters the members of one super-body around its
	// converged position, as a fraction of SpringLength. Zero jitter
	// would drop coincident members onto the deterministic coulomb
	// nudge, which separates them much more slowly.
	jitterFrac = 0.35
)

// MultilevelParams tune the V-cycle.
type MultilevelParams struct {
	// Parent, when non-nil, drives hierarchy coarsening: bodies sharing a
	// parent ID merge into one super-body, level after level, exactly like
	// the interactive aggregation views. Levels where the hierarchy stops
	// shrinking the graph (and graphs with no hierarchy at all) fall back
	// to heavy-edge matching.
	Parent ParentFunc
	// FinalMaxSteps is the refinement budget at the finest level (default
	// 800) — the only budget paid at full graph size. A well-interpolated
	// start converges in a fraction of it; the headroom is for stragglers.
	FinalMaxSteps int
	// Eps is the residual (render px, see Layout.Residual) below which a
	// level counts as converged. Default 0.5.
	Eps float64
}

// DefaultMultilevelParams returns the tuned defaults.
func DefaultMultilevelParams() MultilevelParams {
	return MultilevelParams{FinalMaxSteps: 800, Eps: 0.5}
}

func (mp *MultilevelParams) fillDefaults() {
	d := DefaultMultilevelParams()
	if mp.FinalMaxSteps <= 0 {
		mp.FinalMaxSteps = d.FinalMaxSteps
	}
	if mp.Eps <= 0 {
		mp.Eps = d.Eps
	}
}

// LevelStats reports one level's share of a multilevel run, in execution
// order (coarsest first, finest last).
type LevelStats struct {
	// Level is the distance from the finest graph (0 = the caller's own
	// layout).
	Level   int
	Bodies  int
	Springs int
	// Method is how this level was produced from the finer one:
	// "hierarchy", "matching", or "finest" for the caller's own layout.
	Method   string
	Steps    int
	Residual float64
}

// MultilevelStats summarises a RunMultilevel call.
type MultilevelStats struct {
	Levels     []LevelStats
	TotalSteps int
	// Residual is the finest level's last-step Residual.
	Residual float64
	// Converged reports whether the finest level reached Eps within its
	// budget.
	Converged bool
}

// RunMultilevel lays out the graph with the Barnes-Hut coarsen → solve →
// interpolate → refine V-cycle and leaves the result in l's bodies,
// replacing their positions and velocities. Pinned bodies are never
// moved. It returns per-level statistics; the layout is bit-for-bit
// identical at any Params.Parallelism.
func (l *Layout) RunMultilevel(mp MultilevelParams) MultilevelStats {
	mp.fillDefaults()
	var stats MultilevelStats
	if len(l.bodies) == 0 {
		stats.Converged = true
		return stats
	}

	// Coarsening phase: build the level chain bottom-up. levels[0] is l
	// itself; owners[k] maps a levels[k-1] body index to its levels[k]
	// super-body.
	span := obs.StartSpan(obs.StageCoarsen)
	levels := []*Layout{l}
	owners := [][]int32{nil}
	methods := []string{"finest"}
	for levels[len(levels)-1].Len() > MultilevelMinBodies && len(levels) < maxLevels {
		top := levels[len(levels)-1]
		method := "hierarchy"
		c, ok := coarsenHierarchy(top, mp.Parent)
		if !ok {
			method = "matching"
			c, ok = coarsenMatch(top)
		}
		if !ok {
			break // nothing left to merge
		}
		levels = append(levels, c.coarse)
		owners = append(owners, c.owner)
		methods = append(methods, method)
	}
	span.End()
	obsMLLevels.Set(float64(len(levels)))

	// Solve the coarsest level, then walk down: interpolate + refine.
	for k := len(levels) - 1; k >= 0; k-- {
		lev := levels[k]
		if k < len(levels)-1 {
			interpolate(lev, levels[k+1], owners[k+1], jitterFrac)
		}
		// The finest level is the caller's own graph, so its budget wins
		// even when it is also the coarsest (nothing to coarsen).
		budget := levelMaxSteps
		switch k {
		case 0:
			budget = mp.FinalMaxSteps
		case len(levels) - 1:
			budget = coarseMaxSteps
		}
		obsMLLevel.Set(float64(k))
		// Coarse levels only seed the next finer one, so their residual
		// target relaxes with the coarsening ratio: a super-body of m
		// members may wander ~√m render px farther without disturbing
		// the final picture — the refinement below it works at that scale
		// anyway. Each level measures its Residual against its own
		// bounding box. Without the relaxation the coarse levels spend
		// their whole budgets chasing a precision the interpolation
		// jitter throws away, and the finest level needs more steps, not
		// fewer.
		eps := mp.Eps
		if k > 0 {
			eps = mp.Eps * math.Sqrt(float64(l.Len())/float64(lev.Len()))
		}
		steps, residual := lev.Run(BarnesHut, budget, eps)
		stepC, resG := mlLevelObs(k)
		stepC.Add(uint64(steps))
		resG.Set(residual)
		stats.Levels = append(stats.Levels, LevelStats{
			Level: k, Bodies: lev.Len(), Springs: len(lev.springs),
			Method: methods[k], Steps: steps, Residual: residual,
		})
		stats.TotalSteps += steps
		if k == 0 {
			stats.Residual = residual
			stats.Converged = residual < mp.Eps
		}
	}
	obsMLLevel.Set(0)
	return stats
}

// interpolate seeds a fine level from its solved coarse level: each body
// lands on its super-body's position, scattered deterministically when the
// super-body has several members, with velocities zeroed. Pinned bodies
// stay where the analyst put them.
func interpolate(fine, coarse *Layout, owner []int32, jitterFrac float64) {
	members := make([]int32, coarse.Len())
	for _, ci := range owner {
		members[ci]++
	}
	radius := fine.params.SpringLength * jitterFrac
	for i, b := range fine.bodies {
		if b.Pinned {
			continue
		}
		cb := coarse.bodies[owner[i]]
		b.Pos = cb.Pos
		b.Vel = Point{}
		if members[owner[i]] <= 1 {
			continue // sole member: it IS the super-body
		}
		h := fnv64(b.ID)
		angle := float64(h%3600) / 3600 * 2 * math.Pi
		r := radius * (0.5 + float64((h/3600)%100)/200)
		b.Pos = b.Pos.Add(Point{r * math.Cos(angle), r * math.Sin(angle)})
	}
}
