package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// resOrder hands out deterministic order ranks for test resources (the
// engine assigns them from the name-sorted resource list; here creation
// order is already name order).
var resOrder int32

// makeRes builds a resource for solver tests.
func makeRes(name string, cap float64) *resource {
	resOrder++
	return &resource{name: name, order: resOrder, capacity: cap}
}

// makeFlow attaches a flow to the given resources.
func makeFlow(id int64, rs ...*resource) *activity {
	f := &activity{id: id, attached: true, remaining: 1, resources: rs, heapIdx: -1}
	for _, r := range rs {
		r.addFlow(f)
	}
	return f
}

func TestMaxMinSingleBottleneck(t *testing.T) {
	r := makeRes("l", 100)
	f1 := makeFlow(1, r)
	f2 := makeFlow(2, r)
	solveMaxMin([]*resource{r}, []*activity{f1, f2})
	if f1.rate != 50 || f2.rate != 50 {
		t.Errorf("rates = %g, %g; want 50, 50", f1.rate, f2.rate)
	}
}

func TestMaxMinTwoLevels(t *testing.T) {
	// f1 crosses narrow (10) and wide (100); f2 crosses wide only.
	// f1 gets 10; f2 gets the rest of wide: 90.
	narrow := makeRes("narrow", 10)
	wide := makeRes("wide", 100)
	f1 := makeFlow(1, narrow, wide)
	f2 := makeFlow(2, wide)
	solveMaxMin([]*resource{narrow, wide}, []*activity{f1, f2})
	if f1.rate != 10 {
		t.Errorf("f1 rate = %g, want 10", f1.rate)
	}
	if f2.rate != 90 {
		t.Errorf("f2 rate = %g, want 90", f2.rate)
	}
}

func TestMaxMinThreeFlowsClassic(t *testing.T) {
	// Classic chain: links A(10) and B(10); f1 uses A, f2 uses A+B, f3 uses B.
	// Fair shares: everyone 5 at first (A: 2 flows -> 5, B: 2 flows -> 5);
	// then f1 and f3 could take the slack: A has 5 left for f1 -> wait, f1
	// is the only unfixed on A after f2 fixed at 5... max-min: first
	// bottleneck is A or B with share 5, fixing f1,f2 (via A) then f3 gets
	// B's remainder 5... all end at 5.
	a := makeRes("a", 10)
	b := makeRes("b", 10)
	f1 := makeFlow(1, a)
	f2 := makeFlow(2, a, b)
	f3 := makeFlow(3, b)
	solveMaxMin([]*resource{a, b}, []*activity{f1, f2, f3})
	if f2.rate != 5 {
		t.Errorf("f2 rate = %g, want 5", f2.rate)
	}
	if f1.rate != 5 || f3.rate != 5 {
		t.Errorf("f1,f3 rates = %g,%g, want 5,5", f1.rate, f3.rate)
	}
}

func TestMaxMinAsymmetric(t *testing.T) {
	// A(30) carries f1,f2; B(10) carries f2,f3.
	// B is tighter: share 5 fixes f2,f3 at 5. Then A has 25 left for f1.
	a := makeRes("a", 30)
	b := makeRes("b", 10)
	f1 := makeFlow(1, a)
	f2 := makeFlow(2, a, b)
	f3 := makeFlow(3, b)
	solveMaxMin([]*resource{a, b}, []*activity{f1, f2, f3})
	if f2.rate != 5 || f3.rate != 5 {
		t.Errorf("f2,f3 = %g,%g, want 5,5", f2.rate, f3.rate)
	}
	if f1.rate != 25 {
		t.Errorf("f1 = %g, want 25", f1.rate)
	}
}

func TestMaxMinNoFlows(t *testing.T) {
	r := makeRes("l", 100)
	solveMaxMin([]*resource{r}, nil) // must not panic
}

// Properties of max-min fairness on random instances:
//  1. feasibility: no resource exceeds its capacity;
//  2. efficiency: every flow is blocked by at least one saturated resource;
//  3. fairness: a flow's rate cannot be increased without decreasing the
//     rate of a flow with smaller-or-equal rate (checked via bottleneck
//     saturation: on some resource of each flow, the flow has the maximal
//     rate among the resource's flows, or the resource is saturated).
func TestMaxMinProperties(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		nRes := 1 + rr.Intn(8)
		nFlows := 1 + rr.Intn(12)
		resources := make([]*resource, nRes)
		for i := range resources {
			resources[i] = makeRes(string(rune('a'+i)), 1+float64(rr.Intn(100)))
		}
		flows := make([]*activity, nFlows)
		for i := range flows {
			// Each flow uses a random non-empty subset of resources.
			var rs []*resource
			for _, r := range resources {
				if rr.Intn(2) == 0 {
					rs = append(rs, r)
				}
			}
			if len(rs) == 0 {
				rs = append(rs, resources[rr.Intn(nRes)])
			}
			flows[i] = makeFlow(int64(i), rs...)
		}
		solveMaxMin(resources, flows)

		const eps = 1e-9
		// 1. Feasibility.
		for _, r := range resources {
			sum := 0.0
			for _, f := range r.flows {
				sum += f.rate
			}
			if sum > r.capacity*(1+eps)+eps {
				return false
			}
		}
		// 2+3. Each flow crosses at least one saturated resource where it
		// has a maximal rate among that resource's flows.
		for _, f := range flows {
			blocked := false
			for _, r := range f.resources {
				sum := 0.0
				maxRate := 0.0
				for _, g := range r.flows {
					sum += g.rate
					if g.rate > maxRate {
						maxRate = g.rate
					}
				}
				if sum >= r.capacity*(1-1e-6)-eps && f.rate >= maxRate-eps {
					blocked = true
					break
				}
			}
			if !blocked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestMaxMinDeterministic(t *testing.T) {
	build := func() ([]*resource, []*activity) {
		a := makeRes("a", 37)
		b := makeRes("b", 11)
		c := makeRes("c", 23)
		f1 := makeFlow(1, a, b)
		f2 := makeFlow(2, b, c)
		f3 := makeFlow(3, a, c)
		f4 := makeFlow(4, b)
		return []*resource{a, b, c}, []*activity{f1, f2, f3, f4}
	}
	r1, f1 := build()
	r2, f2 := build()
	solveMaxMin(r1, f1)
	solveMaxMin(r2, f2)
	for i := range f1 {
		if f1[i].rate != f2[i].rate {
			t.Errorf("flow %d: %g vs %g", i, f1[i].rate, f2[i].rate)
		}
	}
}
