package layout

import (
	"fmt"
	"math"
	"testing"
)

func mustAdd(t *testing.T, l *Layout, id string, pos Point, charge float64) *Body {
	t.Helper()
	b, err := l.AddBody(id, pos, charge)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPointArithmetic(t *testing.T) {
	p := Point{3, 4}
	if p.Norm() != 5 {
		t.Errorf("Norm = %g", p.Norm())
	}
	if q := p.Add(Point{1, 1}); q.X != 4 || q.Y != 5 {
		t.Errorf("Add = %v", q)
	}
	if q := p.Sub(Point{1, 1}); q.X != 2 || q.Y != 3 {
		t.Errorf("Sub = %v", q)
	}
	if q := p.Scale(2); q.X != 6 || q.Y != 8 {
		t.Errorf("Scale = %v", q)
	}
}

func TestAddRemoveBodies(t *testing.T) {
	l := New(DefaultParams())
	mustAdd(t, l, "a", Point{0, 0}, 1)
	if _, err := l.AddBody("a", Point{}, 1); err == nil {
		t.Error("duplicate body accepted")
	}
	if l.Body("a") == nil || l.Body("x") != nil {
		t.Error("Body lookup broken")
	}
	mustAdd(t, l, "b", Point{10, 0}, 1)
	if err := l.SetSprings([]Spring{{A: "a", B: "b", Strength: 1}}); err != nil {
		t.Fatal(err)
	}
	if !l.RemoveBody("a") {
		t.Error("RemoveBody failed")
	}
	if l.RemoveBody("a") {
		t.Error("double remove succeeded")
	}
	if len(l.Springs()) != 0 {
		t.Error("springs not cleaned after removal")
	}
	if l.Len() != 1 {
		t.Errorf("Len = %d", l.Len())
	}
}

func TestSetSpringsValidation(t *testing.T) {
	l := New(DefaultParams())
	mustAdd(t, l, "a", Point{}, 1)
	if err := l.SetSprings([]Spring{{A: "a", B: "ghost"}}); err == nil {
		t.Error("spring to unknown body accepted")
	}
}

func TestRepulsionSeparates(t *testing.T) {
	for _, algo := range []Algorithm{Naive, BarnesHut} {
		l := New(DefaultParams())
		mustAdd(t, l, "a", Point{0, 0}, 1)
		mustAdd(t, l, "b", Point{1, 0}, 1)
		l.Step(algo)
		a, b := l.Body("a"), l.Body("b")
		if !(a.Pos.X < 0 && b.Pos.X > 1) {
			t.Errorf("algo %d: bodies did not repel: %v %v", algo, a.Pos, b.Pos)
		}
	}
}

func TestCoincidentBodiesSeparate(t *testing.T) {
	for _, algo := range []Algorithm{Naive, BarnesHut} {
		l := New(DefaultParams())
		mustAdd(t, l, "a", Point{5, 5}, 1)
		mustAdd(t, l, "b", Point{5, 5}, 1)
		l.Run(algo, 50, 1e-9)
		d := l.Body("a").Pos.Sub(l.Body("b").Pos).Norm()
		if d < 1 {
			t.Errorf("algo %d: coincident bodies stuck together (d=%g)", algo, d)
		}
	}
}

func TestSpringPullsTowardRestLength(t *testing.T) {
	p := DefaultParams()
	l := New(p)
	mustAdd(t, l, "a", Point{0, 0}, 1)
	mustAdd(t, l, "b", Point{500, 0}, 1)
	if err := l.SetSprings([]Spring{{A: "a", B: "b", Strength: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Run(Naive, 2000, 1e-4)
	d := l.Body("a").Pos.Sub(l.Body("b").Pos).Norm()
	// Equilibrium: spring pull balances charge repulsion somewhere past
	// the rest length but far below the initial 500.
	if d >= 400 || d < p.SpringLength/2 {
		t.Errorf("equilibrium distance = %g", d)
	}
}

func TestChargeSliderSpreads(t *testing.T) {
	// Higher charge => larger equilibrium spread (Figure 5 semantics).
	spread := func(charge float64) float64 {
		p := DefaultParams()
		p.Charge = charge
		l := New(p)
		for i := 0; i < 8; i++ {
			id := fmt.Sprintf("n%d", i)
			if _, err := l.AddBodyAuto(id, 1); err != nil {
				t.Fatal(err)
			}
		}
		var springs []Spring
		for i := 1; i < 8; i++ {
			springs = append(springs, Spring{A: "n0", B: fmt.Sprintf("n%d", i), Strength: 1})
		}
		if err := l.SetSprings(springs); err != nil {
			t.Fatal(err)
		}
		l.Run(Naive, 3000, 1e-4)
		min, max := l.BoundingBox()
		return max.Sub(min).Norm()
	}
	lo, hi := spread(200), spread(5000)
	if hi <= lo {
		t.Errorf("high charge spread %g not above low charge spread %g", hi, lo)
	}
}

func TestSpringSliderContracts(t *testing.T) {
	// Stronger springs => tighter layout (Figure 5 semantics).
	spread := func(spring float64) float64 {
		p := DefaultParams()
		p.Spring = spring
		l := New(p)
		for i := 0; i < 8; i++ {
			if _, err := l.AddBodyAuto(fmt.Sprintf("n%d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		var springs []Spring
		for i := 1; i < 8; i++ {
			springs = append(springs, Spring{A: "n0", B: fmt.Sprintf("n%d", i), Strength: 1})
		}
		if err := l.SetSprings(springs); err != nil {
			t.Fatal(err)
		}
		l.Run(Naive, 3000, 1e-4)
		min, max := l.BoundingBox()
		return max.Sub(min).Norm()
	}
	loose, tight := spread(0.01), spread(0.5)
	if tight >= loose {
		t.Errorf("strong springs spread %g not below weak springs %g", tight, loose)
	}
}

func TestPinnedBodyStays(t *testing.T) {
	l := New(DefaultParams())
	mustAdd(t, l, "a", Point{0, 0}, 1)
	mustAdd(t, l, "b", Point{1, 0}, 1)
	if !l.Pin("a", Point{0, 0}) {
		t.Fatal("Pin failed")
	}
	l.Run(Naive, 100, 1e-9)
	if l.Body("a").Pos.Norm() != 0 {
		t.Error("pinned body moved")
	}
	if !l.Unpin("a") {
		t.Fatal("Unpin failed")
	}
	l.Step(Naive)
	if l.Body("a").Pos.Norm() == 0 {
		t.Error("unpinned body did not move")
	}
	if l.Pin("ghost", Point{}) || l.Unpin("ghost") || l.Move("ghost", Point{}) {
		t.Error("operations on unknown body succeeded")
	}
}

func TestMoveDragsNeighbours(t *testing.T) {
	l := New(DefaultParams())
	mustAdd(t, l, "a", Point{0, 0}, 1)
	mustAdd(t, l, "b", Point{60, 0}, 1)
	if err := l.SetSprings([]Spring{{A: "a", B: "b", Strength: 1}}); err != nil {
		t.Fatal(err)
	}
	l.Run(Naive, 500, 1e-4)
	if !l.Move("a", Point{1000, 1000}) {
		t.Fatal("Move failed")
	}
	l.Run(Naive, 3000, 1e-4)
	// b must have followed a towards the new location.
	if l.Body("b").Pos.Norm() < 500 {
		t.Errorf("neighbour did not follow: %v", l.Body("b").Pos)
	}
}

func TestConvergence(t *testing.T) {
	l := New(DefaultParams())
	for i := 0; i < 10; i++ {
		if _, err := l.AddBodyAuto(fmt.Sprintf("n%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	var springs []Spring
	for i := 1; i < 10; i++ {
		springs = append(springs, Spring{A: fmt.Sprintf("n%d", (i-1)/2), B: fmt.Sprintf("n%d", i), Strength: 1})
	}
	if err := l.SetSprings(springs); err != nil {
		t.Fatal(err)
	}
	steps, _ := l.Run(Naive, 5000, 1e-5)
	if steps >= 5000 {
		t.Errorf("layout did not converge in %d steps (energy %g)", steps, l.KineticEnergy())
	}
	if l.KineticEnergy() > 1 {
		t.Errorf("post-convergence kinetic energy = %g", l.KineticEnergy())
	}
}

// Barnes-Hut must approximate the naive forces: equilibrium layouts from
// both engines should have comparable geometry.
func TestBarnesHutApproximatesNaive(t *testing.T) {
	build := func() *Layout {
		l := New(DefaultParams())
		for i := 0; i < 30; i++ {
			if _, err := l.AddBodyAuto(fmt.Sprintf("n%d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		var springs []Spring
		for i := 1; i < 30; i++ {
			springs = append(springs, Spring{A: fmt.Sprintf("n%d", (i-1)/2), B: fmt.Sprintf("n%d", i), Strength: 1})
		}
		if err := l.SetSprings(springs); err != nil {
			t.Fatal(err)
		}
		return l
	}
	ln := build()
	ln.Run(Naive, 4000, 1e-4)
	lb := build()
	lb.Run(BarnesHut, 4000, 1e-4)
	minN, maxN := ln.BoundingBox()
	minB, maxB := lb.BoundingBox()
	dn, db := maxN.Sub(minN).Norm(), maxB.Sub(minB).Norm()
	if db < dn/2 || db > dn*2 {
		t.Errorf("Barnes-Hut diameter %g far from naive %g", db, dn)
	}
}

// A body far outside a cluster must receive nearly identical force from
// both engines (direct force-field comparison).
func TestBarnesHutForceAccuracy(t *testing.T) {
	mk := func() *Layout {
		l := New(DefaultParams())
		// A tight cluster near the origin.
		for i := 0; i < 20; i++ {
			x := float64(i%5) * 2
			y := float64(i/5) * 2
			if _, err := l.AddBody(fmt.Sprintf("c%d", i), Point{x, y}, 1); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := l.AddBody("probe", Point{500, 0}, 1); err != nil {
			t.Fatal(err)
		}
		return l
	}
	ln := mk()
	ln.Step(Naive)
	naiveVel := ln.Body("probe").Vel

	lb := mk()
	lb.Step(BarnesHut)
	bhVel := lb.Body("probe").Vel

	if naiveVel.Norm() == 0 {
		t.Fatal("probe felt no naive force")
	}
	rel := naiveVel.Sub(bhVel).Norm() / naiveVel.Norm()
	if rel > 0.05 {
		t.Errorf("Barnes-Hut force error = %.2f%%, want < 5%%", rel*100)
	}
}

// The force field at scale: on a seeded, clustered 3,000-body layout
// (the shape of a Grid'5000 view), Barnes-Hut's per-body relative force
// error against Naive stays bounded at the default theta and shrinks as
// theta falls. The bounds are 1.5× the values the arena tree measured
// at theta 0.7 (max 4.349, mean 0.02868; the max is a body whose exact
// forces nearly cancel); the flat tree's forces are bit-identical to it.
func TestBarnesHutForceAccuracyAtScale(t *testing.T) {
	pos, charges := clustered(3000)
	l := New(DefaultParams())
	for i, p := range pos {
		mustAdd(t, l, fmt.Sprintf("b%d", i), p, charges[i])
	}
	for _, b := range l.bodies {
		b.force = Point{}
	}
	l.repelNaive()
	exact := make([]Point, len(l.bodies))
	for i, b := range l.bodies {
		exact[i] = b.force
	}
	errs := func(theta float64) (worst, mean float64) {
		p := l.Params()
		p.Theta = theta
		l.SetParams(p)
		for _, b := range l.bodies {
			b.force = Point{}
		}
		l.repelBarnesHut(l.allIndices())
		for i, b := range l.bodies {
			e := b.force.Sub(exact[i]).Norm() / exact[i].Norm()
			worst = math.Max(worst, e)
			mean += e / float64(len(l.bodies))
		}
		return worst, mean
	}
	worst, mean := errs(0.7)
	if worst > 1.5*4.349 || mean > 1.5*0.02868 {
		t.Errorf("theta 0.7: max relative error %.4g (bound %.4g), mean %.4g (bound %.4g)",
			worst, 1.5*4.349, mean, 1.5*0.02868)
	}
	_, coarse := errs(0.9)
	_, fine := errs(0.5)
	if !(fine <= mean && mean <= coarse) {
		t.Errorf("mean relative error grows as theta falls: θ=0.9 %.4g, 0.7 %.4g, 0.5 %.4g", coarse, mean, fine)
	}
}

func TestDeterministicLayout(t *testing.T) {
	run := func() map[string]Point {
		l := New(DefaultParams())
		for i := 0; i < 15; i++ {
			if _, err := l.AddBodyAuto(fmt.Sprintf("n%d", i), 1+float64(i%3)); err != nil {
				t.Fatal(err)
			}
		}
		var springs []Spring
		for i := 1; i < 15; i++ {
			springs = append(springs, Spring{A: fmt.Sprintf("n%d", (i-1)/3), B: fmt.Sprintf("n%d", i), Strength: 1})
		}
		if err := l.SetSprings(springs); err != nil {
			t.Fatal(err)
		}
		l.Run(BarnesHut, 300, 0)
		return l.Snapshot()
	}
	a, b := run(), run()
	for id, p := range a {
		if q := b[id]; p != q {
			t.Fatalf("layout not deterministic at %s: %v vs %v", id, p, q)
		}
	}
}

func TestCentroid(t *testing.T) {
	bodies := []*Body{
		{ID: "a", Pos: Point{0, 0}, Charge: 1},
		{ID: "b", Pos: Point{10, 0}, Charge: 3},
	}
	c := Centroid(bodies)
	if math.Abs(c.X-7.5) > 1e-9 || c.Y != 0 {
		t.Errorf("Centroid = %v, want {7.5 0}", c)
	}
	if c := Centroid(nil); c != (Point{}) {
		t.Errorf("empty Centroid = %v", c)
	}
	// Non-positive charges count as 1.
	bodies[1].Charge = -5
	c = Centroid(bodies)
	if math.Abs(c.X-5) > 1e-9 {
		t.Errorf("Centroid with clamped charge = %v", c)
	}
}

func TestScatterAround(t *testing.T) {
	center := Point{100, 100}
	pts := ScatterAround(center, []string{"a", "b", "c"}, 20)
	if len(pts) != 3 {
		t.Fatalf("ScatterAround returned %d points", len(pts))
	}
	for i, p := range pts {
		d := p.Sub(center).Norm()
		if d < 5 || d > 25 {
			t.Errorf("point %d at distance %g from center", i, d)
		}
	}
	// Deterministic.
	again := ScatterAround(center, []string{"a", "b", "c"}, 20)
	for i := range pts {
		if pts[i] != again[i] {
			t.Error("ScatterAround not deterministic")
		}
	}
}

func TestMeanDisplacement(t *testing.T) {
	a := map[string]Point{"x": {0, 0}, "y": {10, 0}}
	b := map[string]Point{"x": {3, 4}, "y": {10, 0}, "z": {99, 99}}
	if got := MeanDisplacement(a, b); got != 2.5 {
		t.Errorf("MeanDisplacement = %g, want 2.5", got)
	}
	if got := MeanDisplacement(a, map[string]Point{}); got != 0 {
		t.Errorf("disjoint MeanDisplacement = %g", got)
	}
}

func TestBoundingBoxEmpty(t *testing.T) {
	l := New(DefaultParams())
	min, max := l.BoundingBox()
	if min != (Point{}) || max != (Point{}) {
		t.Error("empty bounding box not zero")
	}
}

func TestAggregateTransitionSmoothness(t *testing.T) {
	// Simulate an aggregation: 6 bodies collapse into one placed at their
	// centroid; the remaining bodies should barely move in the next steps.
	l := New(DefaultParams())
	var cluster []*Body
	for i := 0; i < 6; i++ {
		b := mustAdd(t, l, fmt.Sprintf("c%d", i), Point{float64(i * 5), 0}, 1)
		cluster = append(cluster, b)
	}
	far := mustAdd(t, l, "far", Point{300, 300}, 1)
	l.Run(BarnesHut, 500, 1e-4)
	farBefore := far.Pos

	// Replace the cluster by its aggregate.
	center := Centroid(cluster)
	var totalCharge float64
	for _, b := range cluster {
		totalCharge += b.Charge
		l.RemoveBody(b.ID)
	}
	if _, err := l.AddBody("agg", center, totalCharge); err != nil {
		t.Fatal(err)
	}
	l.Run(BarnesHut, 50, 1e-4)
	moved := far.Pos.Sub(farBefore).Norm()
	span := 1.0
	if min, max := l.BoundingBox(); max.Sub(min).Norm() > span {
		span = max.Sub(min).Norm()
	}
	if moved/span > 0.25 {
		t.Errorf("far body moved %g (%.0f%% of layout span) across aggregation", moved, 100*moved/span)
	}
}

// RemoveBody deletes one body and every spring touching it, the
// single-ID form of RemoveBodies. Removing an unknown ID is a no-op
// returning false.
func (l *Layout) RemoveBody(id string) bool {
	b, ok := l.index[id]
	if !ok {
		return false
	}
	delete(l.index, id)
	i := b.idx
	copy(l.bodies[i:], l.bodies[i+1:])
	l.bodies = l.bodies[:len(l.bodies)-1]
	for ; i < len(l.bodies); i++ {
		l.bodies[i].idx = i
	}
	springs := l.springs[:0]
	for _, s := range l.springs {
		if s.A != id && s.B != id {
			springs = append(springs, s)
		}
	}
	l.springs = springs
	l.adjDirty = true
	return true
}

// KineticEnergy returns Σ ½‖v‖² (unit masses), another convergence
// indicator.
func (l *Layout) KineticEnergy() float64 {
	var e float64
	for _, b := range l.bodies {
		v := b.Vel.Norm()
		e += 0.5 * v * v
	}
	return e
}

// A naive step counts one force term per body pair in
// viva_layout_force_terms_total, the count the scaling experiment's
// growth check reads.
func TestNaiveCountsForceTerms(t *testing.T) {
	for _, n := range []int{1, 2, 17, 64} {
		l := New(DefaultParams())
		for i := 0; i < n; i++ {
			if _, err := l.AddBodyAuto(fmt.Sprintf("b%d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		t0 := obsForceTerms.Value()
		l.Step(Naive)
		if got, want := obsForceTerms.Value()-t0, uint64(n*(n-1)/2); got != want {
			t.Errorf("n=%d: %d force terms, want %d", n, got, want)
		}
	}
}
