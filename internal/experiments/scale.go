package experiments

import (
	"fmt"
	"math"
	"time"

	"viva/internal/aggregation"
	"viva/internal/layout"
	"viva/internal/platform"
	"viva/internal/trace"
)

// Scale reproduces the scalability argument of Sections 2.4/3.3: the basic
// force-directed algorithm is O(n²) while Barnes-Hut is O(n log n), and
// spatial aggregation keeps the interactive view small regardless of the
// platform size.
func Scale(opts Options) (*Result, error) {
	res := &Result{ID: "scale", Title: "Layout scalability and aggregation view sizes"}

	sizes := []int{64, 256, 1024, 4096}
	if opts.Quick {
		sizes = []int{64, 256, 1024}
	}

	// stepCost returns the best ms/step of three repetitions and the
	// repulsion terms one step sums, read from
	// viva_layout_force_terms_total: Barnes-Hut counts its accepted
	// cells, naive its pair evaluations.
	stepCost := func(n int, algo layout.Algorithm, steps int) (ms, terms float64) {
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
		t0 := forceTerms()
		l.Step(algo) // warm up (quadtree allocation, cache)
		terms = forceTerms() - t0
		// Best of three repetitions, to shrug off scheduler noise on busy
		// machines: the growth-exponent check depends on this number.
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			for i := 0; i < steps; i++ {
				l.Step(algo)
			}
			if d := time.Since(t0).Seconds() / float64(steps) * 1000; d < best {
				best = d
			}
		}
		return best, terms
	}

	table := Table{
		Title:  "force-directed step cost (ms/step and repulsion terms/step)",
		Header: []string{"n", "naive ms", "Barnes-Hut ms", "speedup", "naive terms", "Barnes-Hut terms"},
	}
	naiveMS := make([]float64, len(sizes))
	bhMS := make([]float64, len(sizes))
	naiveTerms := make([]float64, len(sizes))
	bhTerms := make([]float64, len(sizes))
	for i, n := range sizes {
		// Enough steps per measurement that one OS preemption cannot
		// dominate it.
		steps := 40960 / n
		if steps < 3 {
			steps = 3
		}
		naiveMS[i], naiveTerms[i] = stepCost(n, layout.Naive, steps)
		bhMS[i], bhTerms[i] = stepCost(n, layout.BarnesHut, steps)
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%.3f", naiveMS[i]), fmt.Sprintf("%.3f", bhMS[i]),
			fmt.Sprintf("%.1fx", naiveMS[i]/bhMS[i]),
			fmt.Sprintf("%.0f", naiveTerms[i]), fmt.Sprintf("%.0f", bhTerms[i]),
		})
	}
	res.Tables = append(res.Tables, table)

	// Empirical growth exponents over the last size step, of the wall
	// clock and of the terms summed (the deterministic form the checks
	// use).
	last := len(sizes) - 1
	exponent := func(v []float64) float64 {
		return math.Log(v[last]/v[last-1]) / math.Log(float64(sizes[last])/float64(sizes[last-1]))
	}
	expNaive, expBH := exponent(naiveTerms), exponent(bhTerms)
	res.Tables = append(res.Tables, Table{
		Title:  "empirical growth exponent (cost ~ n^k) over the last size step",
		Header: []string{"algorithm", "k (ms)", "k (terms)"},
		Rows: [][]string{
			{"naive", f2(exponent(naiveMS)), f2(expNaive)},
			{"barnes-hut", f2(exponent(bhMS)), f2(expBH)},
		},
	})

	// Aggregation view sizes on the full Grid'5000 hierarchy.
	tr := trace.New()
	platform.Grid5000().DeclareInto(tr)
	tree, err := aggregation.BuildTree(tr)
	if err != nil {
		return nil, err
	}
	viewTable := Table{
		Title:  "Grid'5000 cut sizes per hierarchy level",
		Header: []string{"level", "active groups"},
	}
	var cutSizes []int
	for depth := tree.MaxDepth(); depth >= 0; depth-- {
		c := aggregation.NewLevelCut(tree, depth)
		cutSizes = append(cutSizes, c.Size())
		viewTable.Rows = append(viewTable.Rows, []string{fmt.Sprintf("%d", depth), fmt.Sprintf("%d", c.Size())})
	}
	res.Tables = append(res.Tables, viewTable)

	res.Checks = append(res.Checks,
		check("Barnes-Hut beats naive at the largest size", bhTerms[last] < naiveTerms[last],
			"%.0f vs %.0f terms/step at n=%d (%.2f vs %.2f ms/step)",
			bhTerms[last], naiveTerms[last], sizes[last], bhMS[last], naiveMS[last]),
		check("naive grows about quadratically", expNaive > 1.6,
			"terms exponent %.2f (wall clock %.2f)", expNaive, exponent(naiveMS)),
		check("Barnes-Hut grows subquadratically", expBH < 1.6 && expBH < expNaive,
			"terms exponent %.2f", expBH),
		check("aggregation collapses the grid view", cutSizes[0] > 100*cutSizes[len(cutSizes)-1],
			"%d leaves vs %d top groups", cutSizes[0], cutSizes[len(cutSizes)-1]),
	)
	return res, nil
}

// forceTerms reads the process-wide count of Barnes-Hut repulsion terms.
func forceTerms() float64 {
	return snapshotByName()["viva_layout_force_terms_total"].Value
}
