package core

import (
	"testing"

	"viva/internal/layout"
	"viva/internal/obs"
	"viva/internal/platform"
	"viva/internal/trace"
)

// grid5000View opens a view on the declared (event-free) Grid'5000
// platform: 2170 hosts across 9 sites, the paper's own testbed shape.
func grid5000View(t *testing.T) *View {
	t.Helper()
	tr := trace.New()
	platform.Grid5000().DeclareInto(tr)
	v, err := NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The coarse-graph golden: on the Grid'5000 hierarchy the multilevel
// engine must coarsen along host → cluster → site, producing the level
// chain the platform's shape dictates.
func TestMultilevelGrid5000CoarseChain(t *testing.T) {
	v := grid5000View(t)
	stats := v.StabilizeMultilevel(1.0)
	for _, lv := range stats.Levels {
		t.Logf("level %d (%s): %d bodies, %d springs, %d steps, residual %.3g",
			lv.Level, lv.Method, lv.Bodies, lv.Springs, lv.Steps, lv.Residual)
	}
	if !stats.Converged {
		t.Fatalf("multilevel did not converge: residual %g", stats.Residual)
	}
	if v.LastRelayout().Mode != "multilevel" {
		t.Errorf("LastRelayout mode = %q, want multilevel", v.LastRelayout().Mode)
	}
	// Golden chain: the leaf view (hosts, host links, cluster/site
	// backbones and uplinks) coarsens to the per-(cluster, type) graph,
	// then the per-(site, type) graph, every reduction following the
	// hierarchy — matching never needs to kick in.
	type level struct {
		bodies int
		method string
	}
	want := []level{
		{22, "hierarchy"}, // site level: 9 sites × link types + roots
		{60, "hierarchy"}, // cluster level
		{4409, "finest"},  // leaf cut: hosts + links
	}
	if len(stats.Levels) != len(want) {
		t.Fatalf("level chain length = %d, want %d", len(stats.Levels), len(want))
	}
	for i, w := range want {
		lv := stats.Levels[i]
		if lv.Bodies != w.bodies || lv.Method != w.method {
			t.Errorf("level %d: %d bodies via %s, want %d via %s",
				lv.Level, lv.Bodies, lv.Method, w.bodies, w.method)
		}
	}
}

// After a multilevel cold start, an aggregate/disaggregate must be served
// by the incremental path: only the perturbed neighborhood re-relaxes.
func TestStabilizeIncrementalAfterAggregate(t *testing.T) {
	v := grid5000View(t)
	if stats := v.StabilizeMultilevel(1.0); !stats.Converged {
		t.Fatalf("cold multilevel start did not converge: residual %g", stats.Residual)
	}
	if err := v.Aggregate("grenoble"); err != nil {
		t.Fatal(err)
	}
	steps := v.Stabilize(2000, 1.0)
	info := v.LastRelayout()
	t.Logf("after aggregate: mode=%s steps=%d active=%d residual=%.3g", info.Mode, steps, info.Active, info.Residual)
	if info.Mode != "incremental" {
		t.Fatalf("LastRelayout mode = %q, want incremental", info.Mode)
	}
	if info.Active <= 0 || info.Active >= v.Layout().Len()/4+1 {
		t.Errorf("active set %d out of expected range (0, %d]", info.Active, v.Layout().Len()/4)
	}
	if info.Residual >= 1.0 {
		t.Errorf("incremental residual %g did not reach the bound", info.Residual)
	}
}

// The single layout path: a fresh view's first Stabilize is the V-cycle
// cold start along the aggregation hierarchy, and a second Stabilize on
// the settled, unperturbed layout does not solve again.
func TestFirstStabilizeIsMultilevel(t *testing.T) {
	v := grid5000View(t)
	const maxSteps, eps = 3000, 1.0
	steps := v.Stabilize(maxSteps, eps)
	info := v.LastRelayout()
	t.Logf("cold start: mode=%s fine steps=%d total steps=%d residual=%.3g", info.Mode, steps, info.Steps, info.Residual)
	if info.Mode != "multilevel" {
		t.Fatalf("first Stabilize mode = %q, want multilevel", info.Mode)
	}
	if levels := obs.Default.Gauge("viva_layout_levels", "").Value(); levels != 3 {
		t.Errorf("viva_layout_levels = %g, want 3 (leaf, cluster, site)", levels)
	}
	if steps >= maxSteps || info.Residual >= eps {
		t.Fatalf("cold start did not converge: %d fine steps, residual %g", steps, info.Residual)
	}

	before := v.Layout().Snapshot()
	again := v.Stabilize(maxSteps, eps)
	moved := layout.MeanDisplacement(before, v.Layout().Snapshot())
	t.Logf("second Stabilize: mode=%s steps=%d mean displacement=%.3g", v.LastRelayout().Mode, again, moved)
	if again > 1 {
		t.Errorf("second Stabilize took %d steps on a settled layout, want <= 1", again)
	}
	if moved >= eps {
		t.Errorf("second Stabilize moved bodies by %g on average, want < %g", moved, eps)
	}
}

// With at most MultilevelMinBodies bodies the V-cycle has a single level, so the
// cold start is exactly the flat solver: same steps, same bits.
func TestStabilizeSmallViewMatchesRun(t *testing.T) {
	tr := smallGridTrace(t)
	a, err := NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	if n := a.Layout().Len(); n > layout.MultilevelMinBodies {
		t.Fatalf("view has %d bodies, want a single-level V-cycle", n)
	}
	const maxSteps, eps = 2000, 0.05
	got := a.Stabilize(maxSteps, eps)
	want, _ := b.Layout().Run(layout.BarnesHut, maxSteps, eps)
	if got != want {
		t.Errorf("Stabilize took %d steps, Run %d", got, want)
	}
	sa, sb := a.Layout().Snapshot(), b.Layout().Snapshot()
	for id, p := range sb {
		if q := sa[id]; p != q {
			t.Fatalf("body %s: Stabilize %v, Run %v", id, q, p)
		}
	}
}
