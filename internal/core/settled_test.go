package core

import (
	"slices"
	"testing"

	"viva/internal/layout"
	"viva/internal/obs"
	"viva/internal/trace"
	"viva/internal/vizgraph"
)

var (
	stepsTotal      = obs.Default.Counter("viva_layout_steps_total", "")
	localStepsTotal = obs.Default.Counter("viva_layout_local_steps_total", "")
)

// settledView returns the small two-site view, stabilized until settled.
func settledView(t *testing.T) *View {
	t.Helper()
	return settledViewAt(t, 0.05)
}

// settledViewAt is settledView with eps as the view's residual bound.
func settledViewAt(t *testing.T, eps float64) *View {
	t.Helper()
	v := newView(t)
	if steps := v.Stabilize(5000, eps); steps >= 5000 {
		t.Fatalf("no convergence in %d steps", steps)
	}
	if !v.Settled() {
		t.Fatal("converged view is not settled")
	}
	return v
}

// samePositions fails the test unless every body of a sits bit for bit
// where it sits in b.
func samePositions(t *testing.T, a, b map[string]layout.Point) {
	t.Helper()
	for id, p := range a {
		if q, ok := b[id]; !ok || p != q {
			t.Fatalf("body %s moved: %v -> %v", id, p, q)
		}
	}
}

// A slice change touches no body, spring or charge: on a settled view
// neither it nor the StepLayout and Stabilize after it take a step.
func TestSettledViewTakesNoStep(t *testing.T) {
	v := settledView(t)
	before := v.Layout().Snapshot()
	steps0, local0 := stepsTotal.Value(), localStepsTotal.Value()
	if err := v.SetTimeSlice(0.5, 2); err != nil {
		t.Fatal(err)
	}
	v.MustGraph()
	if !v.Settled() {
		t.Fatal("a slice change unsettled the view")
	}
	if d := v.StepLayout(5); d != 0 {
		t.Errorf("StepLayout on a settled view = %g, want 0", d)
	}
	if n := v.Stabilize(5000, 0.05); n != 0 {
		t.Errorf("Stabilize on a settled view took %d steps", n)
	}
	if d := stepsTotal.Value() - steps0; d != 0 {
		t.Errorf("viva_layout_steps_total moved by %d", d)
	}
	if d := localStepsTotal.Value() - local0; d != 0 {
		t.Errorf("viva_layout_local_steps_total moved by %d", d)
	}
	samePositions(t, before, v.Layout().Snapshot())
}

// A slice change keeps the graph's structure token, so the view skips
// the layout sync: it stays settled and its springs are the very ones it
// had. Aggregate, SetSegments and RefreshSource each recompile the plan
// and issue a new token.
func TestSliceChangeKeepsStructureToken(t *testing.T) {
	v := settledView(t)
	g := v.MustGraph()
	springs, layoutSprings := v.lastSprings, v.Layout().Springs()
	if err := v.SetTimeSlice(0.5, 2); err != nil {
		t.Fatal(err)
	}
	g2 := v.MustGraph()
	if g2 == g || g2.Token() != g.Token() {
		t.Fatalf("slice change: graph rebuilt %v, token %d -> %d", g2 != g, g.Token(), g2.Token())
	}
	if !v.Settled() {
		t.Fatal("a slice change unsettled the view")
	}
	if &v.lastSprings[0] != &springs[0] || !slices.Equal(v.Layout().Springs(), layoutSprings) {
		t.Fatal("a slice change rebuilt the springs")
	}
	for _, tc := range []struct {
		name string
		op   func() error
	}{
		{"Aggregate", func() error { return v.Aggregate("c1") }},
		{"SetSegments", func() error { return v.SetSegments(trace.TypeHost, []string{"app1"}) }},
		{"RefreshSource", func() error { v.RefreshSource(); return nil }},
	} {
		before := v.MustGraph().Token()
		if err := tc.op(); err != nil {
			t.Fatal(err)
		}
		if after := v.MustGraph().Token(); after == before {
			t.Errorf("%s kept the structure token %d", tc.name, before)
		}
	}
}

// Every perturbation the view knows of unsettles it, and the next
// StepLayout moves bodies again.
func TestPerturbationUnsettles(t *testing.T) {
	host := vizgraph.NodeID("c1-1", trace.TypeHost)
	for _, tc := range []struct {
		name    string
		perturb func(t *testing.T, v *View)
	}{
		{"aggregate", func(t *testing.T, v *View) {
			if err := v.Aggregate("c1"); err != nil {
				t.Fatal(err)
			}
		}},
		{"disaggregate", func(t *testing.T, v *View) {
			if err := v.SetLevel(2); err != nil {
				t.Fatal(err)
			}
			v.Stabilize(5000, 0.05)
			if !v.Settled() {
				t.Fatal("cluster-level view did not settle")
			}
			if err := v.Disaggregate("c1"); err != nil {
				t.Fatal(err)
			}
		}},
		{"move", func(t *testing.T, v *View) {
			b := v.Layout().Body(host)
			if err := v.MoveNode(host, b.Pos.X+40, b.Pos.Y+40, false); err != nil {
				t.Fatal(err)
			}
		}},
		{"unpin", func(t *testing.T, v *View) {
			b := v.Layout().Body(host)
			if err := v.MoveNode(host, b.Pos.X+40, b.Pos.Y+40, true); err != nil {
				t.Fatal(err)
			}
			// A pinned body holds its neighbourhood still: settle again
			// around it before releasing it.
			v.Stabilize(5000, 0.05)
			if !v.Settled() {
				t.Fatal("view with a pinned body did not settle")
			}
			if err := v.UnpinNode(host); err != nil {
				t.Fatal(err)
			}
		}},
		{"params", func(t *testing.T, v *View) {
			p := v.Layout().Params()
			p.Charge *= 2
			v.SetLayoutParams(p)
		}},
		{"charge", func(t *testing.T, v *View) {
			// No public mutation changes a node's member count today; a
			// rebuilt graph whose node counts one more member stands in
			// for one.
			g := v.MustGraph()
			g.Node(host).Count++
			v.syncLayout(g)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := settledView(t)
			tc.perturb(t, v)
			if v.Settled() {
				t.Fatal("view still settled after the perturbation")
			}
			before := v.Layout().Snapshot()
			if d := v.StepLayout(1); d <= 0 {
				t.Errorf("StepLayout after the perturbation = %g, want > 0", d)
			}
			if layout.MeanDisplacement(before, v.Layout().Snapshot()) == 0 {
				t.Error("StepLayout after the perturbation moved no body")
			}
		})
	}
}

// On a settled view perturbed locally, StepLayout relaxes only the
// perturbed neighbourhood: every body outside it keeps its position bit
// for bit. The view settles again without a global step.
func TestLocalStepLayoutLeavesTheRestAlone(t *testing.T) {
	v := settledView(t)
	host := vizgraph.NodeID("c1-1", trace.TypeHost)
	b := v.Layout().Body(host)
	if err := v.MoveNode(host, b.Pos.X+40, b.Pos.Y+40, false); err != nil {
		t.Fatal(err)
	}
	inside := map[string]bool{}
	for _, i := range v.Layout().Neighborhood([]string{host}, relayoutHops) {
		inside[v.Layout().Bodies()[i].ID] = true
	}
	if len(inside) == 0 || len(inside) >= v.Layout().Len() {
		t.Fatalf("neighbourhood of %d of %d bodies is not local", len(inside), v.Layout().Len())
	}
	before := v.Layout().Snapshot()
	steps0 := stepsTotal.Value()
	v.StepLayout(5)
	after := v.Layout().Snapshot()
	moved := 0
	for id, p := range before {
		switch {
		case !inside[id] && after[id] != p:
			t.Fatalf("body %s outside the neighbourhood moved: %v -> %v", id, p, after[id])
		case inside[id] && after[id] != p:
			moved++
		}
	}
	if moved == 0 {
		t.Error("the local StepLayout moved no body")
	}
	for i := 0; i < 1000 && !v.Settled(); i++ {
		v.StepLayout(5)
	}
	if !v.Settled() {
		t.Fatal("local relaxation did not settle in 5000 steps")
	}
	if d := stepsTotal.Value() - steps0; d != 0 {
		t.Errorf("%d global steps during a local relaxation", d)
	}
}

// An aggregate/disaggregate round trip on a converged layout gives the
// picture back: every member returns to where the aggregation found it,
// however far the aggregate relaxed meanwhile, shifted by as much as the
// analyst dragged the aggregate.
func TestDisaggregateRestoresSwallowedPositions(t *testing.T) {
	for _, drag := range []layout.Point{{}, {X: 60, Y: -30}} {
		v := settledView(t)
		before := v.Layout().Snapshot()
		if err := v.Aggregate("c1"); err != nil {
			t.Fatal(err)
		}
		agg := vizgraph.NodeID("c1", trace.TypeHost)
		shift := layout.Point{}
		if drag != (layout.Point{}) {
			at := v.Layout().Body(agg).Pos
			to := at.Add(drag)
			if err := v.MoveNode(agg, to.X, to.Y, false); err != nil {
				t.Fatal(err)
			}
			shift = to.Sub(at)
		}
		for i := 0; i < 10; i++ {
			v.StepLayout(5)
		}
		if err := v.Disaggregate("c1"); err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"c1-1", "c1-2", "c1-3"} {
			id = vizgraph.NodeID(id, trace.TypeHost)
			if got, want := v.Layout().Body(id).Pos, before[id].Add(shift); got != want {
				t.Errorf("drag %v: %s came back at %v, want %v", drag, id, got, want)
			}
		}
		if len(v.swallowed) != 0 {
			t.Errorf("drag %v: %d remembered positions outlive the round trip", drag, len(v.swallowed))
		}
	}
}

// New layout params, or a cold re-solve, give a new equilibrium: the
// positions remembered for a disaggregation no longer hold and are
// forgotten, so the members scatter around their parent instead.
func TestNewEquilibriumForgetsSwallowedPositions(t *testing.T) {
	for name, resolve := range map[string]func(v *View){
		"params": func(v *View) {
			p := v.Layout().Params()
			p.SpringLength *= 3
			v.SetLayoutParams(p)
		},
		"cold": func(v *View) { v.StabilizeMultilevel(0) },
	} {
		v := settledView(t)
		if err := v.Aggregate("c1"); err != nil {
			t.Fatal(err)
		}
		if len(v.swallowed) == 0 {
			t.Fatal("aggregating a converged layout remembered no positions")
		}
		resolve(v)
		if len(v.swallowed) != 0 {
			t.Errorf("%s: %d remembered positions outlive the new equilibrium", name, len(v.swallowed))
		}
	}
}

// A body released from rest speeds up before it slows down, so a first
// step under eps is no sign of rest: one StepLayout(1) after an 80-px
// drag leaves the view unsettled, and single steps carry the relaxation
// on until the view settles again, the body well on its way back.
func TestDragUnderEpsFirstStepStaysUnsettled(t *testing.T) {
	const eps = 1.0
	v := settledViewAt(t, eps)
	host := vizgraph.NodeID("c1-1", trace.TypeHost)
	b := v.Layout().Body(host)
	home := b.Pos
	if err := v.MoveNode(host, b.Pos.X+80, b.Pos.Y, false); err != nil {
		t.Fatal(err)
	}
	if d := v.StepLayout(1); d >= eps {
		t.Fatalf("first step after the drag moved %g render px, want under eps %g", d, eps)
	}
	if v.Settled() {
		t.Fatal("view settled after one step of an 80-px drag")
	}
	steps := 1
	for ; steps < 5000 && !v.Settled(); steps++ {
		v.StepLayout(1)
	}
	if !v.Settled() {
		t.Fatal("single steps did not settle the view in 5000 steps")
	}
	// Frozen where it was dropped, it would sit 80 px away.
	back := v.Layout().Body(host).Pos.Sub(home).Norm()
	t.Logf("settled after %d single steps, %.3g px from its place before the drag", steps, back)
	if back > 40 {
		t.Errorf("the dragged body settled %.3g px from its place before the 80-px drag, not half way back", back)
	}
}

// StepLayout carries a disturbance on only through the bodies it still
// moves: a region that has calmed down leaves the perturbed set while
// another still relaxes, instead of being stepped until every region has.
func TestStepLayoutDropsCalmedRegions(t *testing.T) {
	v := settledView(t)
	// Hosts of different sites: their neighbourhoods are disjoint.
	calm, busy := vizgraph.NodeID("c1-1", trace.TypeHost), vizgraph.NodeID("c2-1", trace.TypeHost)
	for id, d := range map[string]float64{calm: 0.5, busy: 80} {
		b := v.Layout().Body(id)
		if err := v.MoveNode(id, b.Pos.X+d, b.Pos.Y+d, false); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000 && !v.Settled(); i++ {
		v.StepLayout(5)
		if _, ok := v.perturbed[calm]; !ok && !v.Settled() {
			return // the calm region dropped out while the busy one relaxes
		}
	}
	t.Fatal("the calm region stayed perturbed until the whole view settled")
}
