package layout

import (
	"fmt"
	"math"
	"testing"
)

// addGrid fills l with a deterministic pseudo-random scatter of n bodies
// (FNV-jittered positions, mixed charges) and a spanning tree of springs.
func addScatter(t testing.TB, l *Layout, n int, seed string) {
	t.Helper()
	var springs []Spring
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("%s%d", seed, i)
		h := fnv64(id)
		pos := Point{
			X: float64(h%100000)/100 - 500,
			Y: float64((h/100000)%100000)/100 - 500,
		}
		if _, err := l.AddBody(id, pos, 1+float64(h%3)); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			springs = append(springs, Spring{
				A: fmt.Sprintf("%s%d", seed, (i-1)/3), B: id, Strength: 1,
			})
		}
	}
	if err := l.SetSprings(springs); err != nil {
		t.Fatal(err)
	}
}

// Many bodies at the exact same position drive insertion to maxQuadDepth;
// the node must stay aggregated without recursing forever, and the forces
// must stay finite so the pile can separate.
func TestQuadtreeCoincidentPileAtDepthLimit(t *testing.T) {
	l := New(DefaultParams())
	for i := 0; i < 10; i++ {
		mustAdd(t, l, fmt.Sprintf("p%d", i), Point{7, 7}, 1)
	}
	// A couple of distinct bodies so the tree subdivides around the pile.
	mustAdd(t, l, "far1", Point{100, 0}, 1)
	mustAdd(t, l, "far2", Point{0, 100}, 1)
	l.Step(BarnesHut)
	for _, b := range l.Bodies() {
		if math.IsNaN(b.Pos.X) || math.IsInf(b.Pos.X, 0) ||
			math.IsNaN(b.Pos.Y) || math.IsInf(b.Pos.Y, 0) {
			t.Fatalf("body %s at non-finite position %v", b.ID, b.Pos)
		}
	}
	l.Run(BarnesHut, 200, 1e-9)
	// The pile must have separated.
	d := l.Body("p0").Pos.Sub(l.Body("p9").Pos).Norm()
	if d < 0.5 {
		t.Errorf("coincident pile did not separate (d=%g)", d)
	}
}

// A degenerate bounding box (all bodies collinear, or a single point) must
// still produce a usable tree: the builder substitutes a unit cell size.
func TestQuadtreeDegenerateBoundingBox(t *testing.T) {
	t.Run("vertical line", func(t *testing.T) {
		l := New(DefaultParams())
		for i := 0; i < 8; i++ {
			mustAdd(t, l, fmt.Sprintf("v%d", i), Point{5, float64(i)}, 1)
		}
		l.buildTree(1)
		if len(l.tree.nodes) == 0 {
			t.Fatal("no tree built")
		}
		leaves := 0
		for _, nd := range l.tree.nodes {
			if nd.body != noNode {
				leaves++
			}
		}
		if leaves != 8 {
			t.Errorf("one-body leaves = %d, want 8", leaves)
		}
		l.Step(BarnesHut) // must not panic or produce NaNs
		for _, b := range l.Bodies() {
			if math.IsNaN(b.Pos.X + b.Pos.Y) {
				t.Fatalf("NaN position for %s", b.ID)
			}
		}
	})
	t.Run("single point", func(t *testing.T) {
		l := New(DefaultParams())
		mustAdd(t, l, "only", Point{3, 4}, 2)
		l.buildTree(1)
		nd := l.tree.nodes[0]
		if nd.size <= 0 {
			t.Errorf("degenerate root size %g", nd.size)
		}
		if len(l.tree.nodes) != 1 || nd.body == noNode {
			t.Errorf("single-body root: nodes=%d body=%d", len(l.tree.nodes), nd.body)
		}
	})
	t.Run("empty", func(t *testing.T) {
		l := New(DefaultParams())
		if l.buildTree(1); len(l.tree.nodes) != 0 {
			t.Errorf("empty build made %d nodes", len(l.tree.nodes))
		}
		l.Step(BarnesHut) // no bodies: a no-op, not a crash
	})
}

// The tree is reused: after a warm-up step, a serial Barnes-Hut step
// performs (almost) no heap allocation — the point of the flat slice.
func TestBarnesHutStepAllocationLean(t *testing.T) {
	p := DefaultParams()
	p.Parallelism = 1
	l := New(p)
	addScatter(t, l, 500, "a")
	l.Step(BarnesHut) // warm up the tree and the adjacency
	allocs := testing.AllocsPerRun(10, func() { l.Step(BarnesHut) })
	if allocs > 4 {
		t.Errorf("serial Barnes-Hut step allocates %.0f objects/step, want ~0", allocs)
	}
}

// Property: as Theta → 0 the Barnes-Hut force field converges to the
// exact all-pairs field, on randomized-but-seeded scatters.
func TestBarnesHutConvergesToNaiveAsThetaShrinks(t *testing.T) {
	for _, seed := range []string{"s", "t", "u"} {
		l := New(DefaultParams())
		addScatter(t, l, 300, seed)

		// Exact forces.
		for _, b := range l.bodies {
			b.force = Point{}
		}
		l.repelNaive()
		exact := make([]Point, len(l.bodies))
		var scale float64
		for i, b := range l.bodies {
			exact[i] = b.force
			if n := b.force.Norm(); n > scale {
				scale = n
			}
		}
		if scale == 0 {
			t.Fatalf("seed %s: zero exact forces", seed)
		}

		maxErr := func(theta float64) float64 {
			p := l.Params()
			p.Theta = theta
			l.SetParams(p)
			for _, b := range l.bodies {
				b.force = Point{}
			}
			l.repelBarnesHut(l.allIndices())
			var worst float64
			for i, b := range l.bodies {
				if e := b.force.Sub(exact[i]).Norm() / scale; e > worst {
					worst = e
				}
			}
			return worst
		}

		errs := []float64{maxErr(1.2), maxErr(0.6), maxErr(0.15)}
		if errs[2] > 0.02 {
			t.Errorf("seed %s: theta=0.15 max relative error %.3f, want <0.02", seed, errs[2])
		}
		if !(errs[2] <= errs[1] && errs[1] <= errs[0]) {
			t.Errorf("seed %s: error not monotone in theta: %v", seed, errs)
		}
	}
}

// RemoveBodies must behave exactly like repeated RemoveBody calls:
// surviving insertion order, spring filtering, index map consistency.
func TestRemoveBodiesBatch(t *testing.T) {
	build := func() *Layout {
		l := New(DefaultParams())
		addScatter(t, l, 40, "r")
		return l
	}
	doomed := []string{"r3", "r7", "r8", "r20", "r39", "ghost", "r3"}

	one := build()
	removed := 0
	for _, id := range doomed {
		if one.RemoveBody(id) {
			removed++
		}
	}
	batch := build()
	if got := batch.RemoveBodies(doomed); got != removed {
		t.Errorf("RemoveBodies removed %d, RemoveBody loop removed %d", got, removed)
	}

	a, b := one.Bodies(), batch.Bodies()
	if len(a) != len(b) {
		t.Fatalf("body count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("order diverges at %d: %s vs %s", i, a[i].ID, b[i].ID)
		}
		if batch.Body(a[i].ID) != b[i] {
			t.Fatalf("index map stale for %s", a[i].ID)
		}
	}
	sa, sb := one.Springs(), batch.Springs()
	if len(sa) != len(sb) {
		t.Fatalf("spring count %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		if sa[i] != sb[i] {
			t.Fatalf("spring %d diverges: %v vs %v", i, sa[i], sb[i])
		}
	}
	// Both must still step cleanly after the surgery.
	one.Step(BarnesHut)
	batch.Step(BarnesHut)
}
