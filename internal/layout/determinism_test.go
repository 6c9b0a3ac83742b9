package layout

import (
	"fmt"
	"testing"
)

// The concurrency contract of the force engine: Parallelism is purely a
// throughput knob. Serial, 2-way and 8-way parallel runs must produce
// identical (bit-for-bit, not merely close) snapshots, because per-body
// accumulation order is a fixed function of the body and spring indices —
// never of the worker count. This is the regression test for that
// invariant.
func TestStepDeterministicAcrossParallelism(t *testing.T) {
	run := func(parallelism int) map[string]Point {
		p := DefaultParams()
		p.Parallelism = parallelism
		l := New(p)
		addScatter(t, l, 2000, "d")
		for i := 0; i < 100; i++ {
			l.Step(BarnesHut)
		}
		return l.Snapshot()
	}

	// 2k bodies exceeds the parallel grain at 8 workers, so the parallel
	// runs genuinely shard the force passes.
	t.Run("barneshut/2k", func(t *testing.T) {
		serial := run(1)
		for _, par := range []int{2, 8} {
			parallel := run(par)
			if len(serial) != len(parallel) {
				t.Fatalf("P=%d: snapshot sizes differ: %d vs %d", par, len(serial), len(parallel))
			}
			diverged := 0
			for id, p := range serial {
				if q := parallel[id]; p != q {
					diverged++
					if diverged <= 3 {
						t.Errorf("P=%d: body %s diverged: serial %v parallel %v", par, id, p, q)
					}
				}
			}
			if diverged > 0 {
				t.Fatalf("%d of %d bodies diverged between Parallelism 1 and %d", diverged, len(serial), par)
			}
		}
	})
}

// Mid-run mutations (the interactive aggregate/disaggregate churn) must
// not break the parallel/serial equivalence: remove a slab of bodies,
// rewire springs, keep stepping.
func TestDeterminismSurvivesMutation(t *testing.T) {
	run := func(parallelism int) map[string]Point {
		p := DefaultParams()
		p.Parallelism = parallelism
		l := New(p)
		addScatter(t, l, 900, "m")
		for i := 0; i < 10; i++ {
			l.Step(BarnesHut)
		}
		var doomed []string
		for i := 100; i < 250; i++ {
			doomed = append(doomed, fmt.Sprintf("m%d", i))
		}
		l.RemoveBodies(doomed)
		if _, err := l.AddBody("agg", Point{1, 2}, 150); err != nil {
			t.Fatal(err)
		}
		if err := l.SetSprings([]Spring{{A: "m0", B: "agg", Strength: 2}}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			l.Step(BarnesHut)
		}
		return l.Snapshot()
	}
	serial := run(1)
	for _, par := range []int{2, 8} {
		parallel := run(par)
		for id, p := range serial {
			if q := parallel[id]; p != q {
				t.Fatalf("P=%d: body %s diverged after mutation: %v vs %v", par, id, p, q)
			}
		}
	}
}
