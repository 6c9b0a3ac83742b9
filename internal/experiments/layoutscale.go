package experiments

import (
	"fmt"
	"time"

	"viva/internal/layout"
)

// LayoutScale measures what the multilevel V-cycle buys over the flat
// Barnes-Hut engine: wall-clock time from a cold seed to the same
// convergence threshold (residual < eps, in render px). The flat
// engine's step is already O(n log n), but the *number* of steps a cold
// start needs grows with the graph, so time-to-converged degrades much
// faster than step time; the multilevel scheme does that convergence work
// on coarsened graphs and arrives at the fine level nearly settled. This
// extends the paper's scalability argument (§2.4/§3.3) from per-step cost
// to whole-layout latency — the quantity an analyst actually waits on.
func LayoutScale(opts Options) (*Result, error) {
	res := &Result{ID: "layoutscale", Title: "Multilevel layout: time-to-converged vs flat Barnes-Hut"}

	sizes := []int{5000, 20000}
	if opts.Quick {
		sizes = []int{1500}
	}
	eps := layout.DefaultMultilevelParams().Eps

	// The same 4-ary tree family the layout benchmarks use; parent links
	// double as the coarsening hierarchy, exactly like a platform tree.
	build := func(n int) *layout.Layout {
		l := layout.New(layout.DefaultParams())
		var springs []layout.Spring
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("n%d", i)
			if _, err := l.AddBodyAuto(id, 1); err != nil {
				panic(err)
			}
			if i > 0 {
				springs = append(springs, layout.Spring{A: fmt.Sprintf("n%d", (i-1)/4), B: id, Strength: 1})
			}
		}
		if err := l.SetSprings(springs); err != nil {
			panic(err)
		}
		return l
	}
	parent := func(id string) (string, bool) {
		var i int
		if _, err := fmt.Sscanf(id, "n%d", &i); err != nil || i == 0 {
			return "", false
		}
		return fmt.Sprintf("n%d", (i-1)/4), true
	}

	table := Table{
		Title:  fmt.Sprintf("cold start to residual < %.2g (wall clock and body-steps)", eps),
		Header: []string{"n", "flat ms", "flat steps", "multilevel ms", "ml steps", "levels", "speedup", "body-step ratio"},
	}
	// A body-step is one body advanced by one step, the unit both
	// engines pay per step: the deterministic measure of the work to
	// converge that the check uses.
	ratios := make([]float64, len(sizes))
	var mlConverged, flatConverged = true, true
	for i, n := range sizes {
		t0 := time.Now()
		flatSteps, _ := build(n).Run(layout.BarnesHut, 50000, eps)
		flatMS := time.Since(t0).Seconds() * 1000
		if flatSteps >= 50000 {
			flatConverged = false
		}

		t0 = time.Now()
		st := build(n).RunMultilevel(layout.MultilevelParams{Parent: parent})
		mlMS := time.Since(t0).Seconds() * 1000
		if !st.Converged {
			mlConverged = false
		}

		mlBodySteps := 0
		for _, lev := range st.Levels {
			mlBodySteps += lev.Bodies * lev.Steps
		}
		ratios[i] = float64(flatSteps*n) / float64(mlBodySteps)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", flatMS), fmt.Sprintf("%d", flatSteps),
			fmt.Sprintf("%.0f", mlMS), fmt.Sprintf("%d", st.TotalSteps),
			fmt.Sprintf("%d", len(st.Levels)),
			fmt.Sprintf("%.1fx", flatMS/mlMS),
			fmt.Sprintf("%.1fx", ratios[i]),
		})
	}
	res.Tables = append(res.Tables, table)
	res.Notes = append(res.Notes,
		"flat and multilevel stop at the same residual threshold (render px), so both end equally settled",
		"body-steps sum each level's bodies times its steps; the flat engine pays n per step",
		"the multilevel step count spans ALL levels; most of those steps run on graphs 4-64x smaller than the input")

	last := len(sizes) - 1
	want := 5.0
	if opts.Quick {
		want = 2.0 // small graphs leave the flat engine less room to lose
	}
	res.Checks = append(res.Checks,
		check("flat baseline converges", flatConverged, "within the 50000-step cap"),
		check("multilevel converges", mlConverged, "at every size"),
		check(fmt.Sprintf("multilevel needs >= %.0fx fewer body-steps to converge at n=%d", want, sizes[last]),
			ratios[last] >= want, "%.1fx", ratios[last]),
	)
	return res, nil
}
