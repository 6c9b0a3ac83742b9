package layout

import (
	"fmt"
	"testing"
)

// buildHierarchical populates l with a synthetic datacenter shape — hosts
// in clusters of 8, clusters in sites of 8, one root — wired as a tree
// (host → cluster head → site head → root head), and returns the
// ParentFunc describing it. Deterministic scattered start positions.
func buildHierarchical(t testing.TB, l *Layout, hosts int) ParentFunc {
	t.Helper()
	parent := make(map[string]string)
	id := func(kind string, i int) string { return fmt.Sprintf("%s%d/host", kind, i) }
	var springs []Spring
	for i := 0; i < hosts; i++ {
		hid := id("h", i)
		h := fnv64(hid)
		pos := Point{X: float64(h%100000)/100 - 500, Y: float64((h/100000)%100000)/100 - 500}
		if _, err := l.AddBody(hid, pos, 1); err != nil {
			t.Fatal(err)
		}
		ci := i / 8
		parent[hid] = id("c", ci)
		parent[id("c", ci)] = id("s", ci/8)
		parent[id("s", ci/8)] = "root/host"
		// Tree wiring: non-head hosts attach to their cluster head; cluster
		// heads to the site head; site heads to host 0.
		switch {
		case i%8 != 0:
			springs = append(springs, Spring{A: id("h", ci*8), B: hid})
		case ci%8 != 0:
			springs = append(springs, Spring{A: id("h", (ci/8)*64), B: hid})
		case i != 0:
			springs = append(springs, Spring{A: id("h", 0), B: hid})
		}
	}
	if err := l.SetSprings(springs); err != nil {
		t.Fatal(err)
	}
	return func(bodyID string) (string, bool) {
		p, ok := parent[bodyID]
		return p, ok
	}
}

// Multilevel runs must be bit-for-bit identical at any Parallelism — the
// same contract the flat engine honors, now across coarsening,
// interpolation and per-level refinement.
func TestRunMultilevelDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) map[string]Point {
		p := DefaultParams()
		p.Parallelism = parallelism
		l := New(p)
		parent := buildHierarchical(t, l, 1500)
		mp := DefaultMultilevelParams()
		mp.Parent = parent
		l.RunMultilevel(mp)
		return l.Snapshot()
	}
	base := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		if len(got) != len(base) {
			t.Fatalf("P=%d: snapshot size %d, want %d", par, len(got), len(base))
		}
		diverged := 0
		for id, p := range base {
			if q := got[id]; p != q {
				diverged++
				if diverged <= 3 {
					t.Errorf("P=%d: body %s diverged: %v vs %v", par, id, p, q)
				}
			}
		}
		if diverged > 0 {
			t.Fatalf("P=%d: %d of %d bodies diverged", par, diverged, len(base))
		}
	}
}

// coarsenHierarchy must merge exactly by parent, sum charges, place each
// super-body at the charge-weighted centroid and merge projected springs.
func TestCoarsenHierarchyMergesByParent(t *testing.T) {
	l := New(DefaultParams())
	// Two clusters of two hosts each, plus one parentless root body.
	add := func(id string, x, y, charge float64) {
		if _, err := l.AddBody(id, Point{x, y}, charge); err != nil {
			t.Fatal(err)
		}
	}
	add("a1", 0, 0, 1)
	add("a2", 2, 0, 3)
	add("b1", 10, 10, 1)
	add("b2", 12, 10, 1)
	add("lone", 5, 5, 2)
	if err := l.SetSprings([]Spring{
		{A: "a1", B: "b1", Strength: 1},
		{A: "a2", B: "b2", Strength: 2},
		{A: "a1", B: "a2", Strength: 1}, // intra-cluster: must vanish
		{A: "lone", B: "b1", Strength: 1},
	}); err != nil {
		t.Fatal(err)
	}
	parents := map[string]string{"a1": "A", "a2": "A", "b1": "B", "b2": "B"}
	c, ok := coarsenHierarchy(l, func(id string) (string, bool) {
		p, ok := parents[id]
		return p, ok
	})
	if !ok {
		t.Fatal("coarsenHierarchy failed on a mergeable graph")
	}
	cl := c.coarse
	if cl.Len() != 3 {
		t.Fatalf("coarse bodies = %d, want 3 (A, B, lone)", cl.Len())
	}
	a, b, lone := cl.Body("A"), cl.Body("B"), cl.Body("lone")
	if a == nil || b == nil || lone == nil {
		t.Fatalf("missing coarse bodies: A=%v B=%v lone=%v", a, b, lone)
	}
	if a.Charge != 4 || b.Charge != 2 || lone.Charge != 2 {
		t.Errorf("charges = %g/%g/%g, want 4/2/2", a.Charge, b.Charge, lone.Charge)
	}
	// A's centroid: (0,0)*1 + (2,0)*3 over charge 4 = (1.5, 0).
	if a.Pos != (Point{1.5, 0}) {
		t.Errorf("A centroid = %v, want {1.5 0}", a.Pos)
	}
	// Springs: a1-b1 (1) and a2-b2 (2) merge into one A-B super-spring at
	// the max strength (2) — summing would stiffen hubs past the
	// integrator's stability range; the intra-cluster a1-a2 vanishes;
	// lone-b1 projects to lone-B.
	springs := cl.Springs()
	if len(springs) != 2 {
		t.Fatalf("coarse springs = %d, want 2: %+v", len(springs), springs)
	}
	strength := map[string]float64{}
	for _, s := range springs {
		strength[s.A+"~"+s.B] = s.Strength
	}
	if strength["A~B"] != 2 && strength["B~A"] != 2 {
		t.Errorf("A-B strength: %+v, want max-merged 2", springs)
	}
	// Ownership maps every fine body to its super-body.
	for i, bd := range l.Bodies() {
		want := parents[bd.ID]
		if want == "" {
			want = bd.ID
		}
		if got := cl.Bodies()[c.owner[i]].ID; got != want {
			t.Errorf("owner[%s] = %s, want %s", bd.ID, got, want)
		}
	}
}

// A flat graph has no hierarchy to follow: coarsenHierarchy must decline
// and coarsenMatch must shrink it by heavy-edge matching.
func TestCoarsenMatchFallsBackOnFlatGraph(t *testing.T) {
	l := New(DefaultParams())
	for i := 0; i < 6; i++ {
		if _, err := l.AddBody(fmt.Sprintf("f%d", i), Point{float64(i), 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	var springs []Spring
	for i := 0; i < 5; i++ {
		springs = append(springs, Spring{A: fmt.Sprintf("f%d", i), B: fmt.Sprintf("f%d", i+1), Strength: float64(i + 1)})
	}
	if err := l.SetSprings(springs); err != nil {
		t.Fatal(err)
	}
	if _, ok := coarsenHierarchy(l, nil); ok {
		t.Fatal("coarsenHierarchy succeeded without a ParentFunc")
	}
	c, ok := coarsenMatch(l)
	if !ok {
		t.Fatal("coarsenMatch failed on a connected chain")
	}
	if c.coarse.Len() >= l.Len() {
		t.Fatalf("matching did not shrink: %d -> %d", l.Len(), c.coarse.Len())
	}
	// Greedy in index order with heaviest-edge choice: f0 prefers f1 (its
	// only neighbour), f2 prefers f3 (weight 3 > 2), f4 pairs with f5.
	wantOwnerOf := map[string]string{"f0": "m:f0", "f1": "m:f0", "f2": "m:f2", "f3": "m:f2", "f4": "m:f4", "f5": "m:f4"}
	for i, b := range l.Bodies() {
		if got := c.coarse.Bodies()[c.owner[i]].ID; got != wantOwnerOf[b.ID] {
			t.Errorf("owner[%s] = %s, want %s", b.ID, got, wantOwnerOf[b.ID])
		}
	}
}

// The point of the exercise: at the same residual threshold, the V-cycle
// must spend far fewer steps at full graph size than the flat solver.
func TestMultilevelConvergesWithFewerFineSteps(t *testing.T) {
	const hosts = 1500
	eps := 0.5

	flat := New(DefaultParams())
	buildHierarchical(t, flat, hosts)
	flatSteps, _ := flat.Run(BarnesHut, 3000, eps)

	ml := New(DefaultParams())
	parent := buildHierarchical(t, ml, hosts)
	mp := DefaultMultilevelParams()
	mp.Parent = parent
	mp.Eps = eps
	stats := ml.RunMultilevel(mp)

	for _, lv := range stats.Levels {
		t.Logf("level %d (%s): %d bodies, %d springs, %d steps, residual %.3g",
			lv.Level, lv.Method, lv.Bodies, lv.Springs, lv.Steps, lv.Residual)
	}
	if !stats.Converged {
		t.Fatalf("multilevel did not converge: residual %g", stats.Residual)
	}
	fine := stats.Levels[len(stats.Levels)-1]
	if fine.Level != 0 {
		t.Fatalf("last level = %d, want 0", fine.Level)
	}
	t.Logf("flat steps=%d; multilevel fine steps=%d, total=%d, levels=%d",
		flatSteps, fine.Steps, stats.TotalSteps, len(stats.Levels))
	if fine.Steps*2 >= flatSteps {
		t.Errorf("fine-level steps %d not well below flat %d", fine.Steps, flatSteps)
	}
	// The chain must actually use the hierarchy.
	if len(stats.Levels) < 3 {
		t.Errorf("only %d levels built", len(stats.Levels))
	}
	if stats.Levels[len(stats.Levels)-2].Method != "hierarchy" {
		t.Errorf("first coarsening method = %s, want hierarchy", stats.Levels[len(stats.Levels)-2].Method)
	}
}

// Incremental-vs-cold equivalence: after a local perturbation of a
// converged layout, RefineLocal must bring the GLOBAL residual back under
// the same bound a cold re-solve would reach — while touching only the
// neighborhood.
func TestRefineLocalReachesColdResidualBound(t *testing.T) {
	const eps = 0.5
	build := func() *Layout {
		l := New(DefaultParams())
		buildHierarchical(t, l, 400)
		if steps, _ := l.Run(BarnesHut, 3000, eps); steps >= 3000 {
			t.Fatalf("seed layout did not converge in %d steps", steps)
		}
		return l
	}

	perturb := func(l *Layout) {
		b := l.Body("h42/host")
		if b == nil {
			t.Fatal("missing body h42/host")
		}
		l.Move("h42/host", Point{b.Pos.X + 80, b.Pos.Y + 80})
	}

	inc := build()
	perturb(inc)
	steps, res := inc.RefineLocal([]string{"h42/host"}, 2, 2000, eps)
	if res >= eps {
		t.Fatalf("incremental refinement stuck at residual %g after %d steps", res, steps)
	}

	cold := build()
	perturb(cold)
	coldSteps, _ := cold.Run(BarnesHut, 3000, eps)

	// Equivalence: one global step on each relaxed layout, measured with
	// the residual RefineLocal and Run judge by, gives the true residual;
	// both must sit under the same bound.
	incGlobal := inc.Residual(inc.Step(BarnesHut))
	coldGlobal := cold.Residual(cold.Step(BarnesHut))
	t.Logf("incremental: %d local steps, global residual %.3g; cold: %d steps, global residual %.3g",
		steps, incGlobal, coldSteps, coldGlobal)
	if incGlobal >= eps {
		t.Errorf("global residual after incremental refine = %g, want < %g", incGlobal, eps)
	}
	if coldGlobal >= eps {
		t.Errorf("global residual after cold solve = %g, want < %g", coldGlobal, eps)
	}
}

// The subset step must be deterministic across Parallelism too: the
// active list shards, but per-body accumulation order never changes.
func TestRefineLocalDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) map[string]Point {
		p := DefaultParams()
		p.Parallelism = parallelism
		l := New(p)
		// A hub with 600 spokes: hops=1 from the hub activates 601 bodies,
		// enough for the parallel path to shard at 8 workers.
		if _, err := l.AddBody("hub/host", Point{}, 4); err != nil {
			t.Fatal(err)
		}
		var springs []Spring
		for i := 0; i < 600; i++ {
			id := fmt.Sprintf("spoke%d/host", i)
			h := fnv64(id)
			pos := Point{X: float64(h%1000)/10 - 50, Y: float64((h/1000)%1000)/10 - 50}
			if _, err := l.AddBody(id, pos, 1); err != nil {
				t.Fatal(err)
			}
			springs = append(springs, Spring{A: "hub/host", B: id})
		}
		if err := l.SetSprings(springs); err != nil {
			t.Fatal(err)
		}
		l.RefineLocal([]string{"hub/host"}, 1, 50, 0)
		return l.Snapshot()
	}
	base := run(1)
	for _, par := range []int{2, 8} {
		got := run(par)
		for id, p := range base {
			if q := got[id]; p != q {
				t.Fatalf("P=%d: body %s diverged: %v vs %v", par, id, p, q)
			}
		}
	}
}

// Moving names exactly the neighbourhood bodies whose last step still
// reached eps, or whose force would drive them that far at its terminal
// velocity: some after a RefineLocal that stopped short of eps, none
// after one that converged.
func TestMovingAfterRefineLocal(t *testing.T) {
	const eps = 0.5
	l := New(DefaultParams())
	buildHierarchical(t, l, 400)
	if steps, _ := l.Run(BarnesHut, 3000, eps); steps >= 3000 {
		t.Fatalf("seed layout did not converge in %d steps", steps)
	}
	b := l.Body("h42/host")
	l.Move("h42/host", Point{b.Pos.X + 80, b.Pos.Y + 80})
	seeds := []string{"h42/host"}
	if _, res := l.RefineLocal(seeds, 2, 3, eps); res < eps {
		t.Fatalf("3 steps after an 80-px drag already at residual %g", res)
	}
	moving := map[string]bool{}
	for _, id := range l.Moving(seeds, 2, eps) {
		moving[id] = true
	}
	if len(moving) == 0 {
		t.Fatal("nothing moving after a RefineLocal that stopped short of eps")
	}
	p := l.Params()
	for _, i := range l.Neighborhood(seeds, 2) {
		b := l.Bodies()[i]
		dt := l.bodyTimeStep(p.TimeStep, int(i))
		step := l.Residual(b.disp)
		pull := l.Residual(b.force.Norm() * dt * dt * p.Damping / (1 - p.Damping))
		if want := step >= eps || pull >= eps; moving[b.ID] != want {
			t.Errorf("%s: Moving lists it %v, last step %g render px, terminal step %g", b.ID, moving[b.ID], step, pull)
		}
	}
	if _, res := l.RefineLocal(seeds, 2, 2000, eps); res >= eps {
		t.Fatalf("refinement stuck at residual %g", res)
	}
	if m := l.Moving(seeds, 2, eps); len(m) != 0 {
		t.Errorf("still moving after convergence: %v", m)
	}
}
