package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"viva/internal/trace"
)

// solveMaxMinRef is the solver as it stood while flow lists were only
// sorted lazily: it sorts its resources by rank and its flows by id on
// every call, takes the first minimal share in rank order as the
// bottleneck, and fixes the bottleneck's flows in id order.
// FuzzMaxMinMatchesReference holds solveMaxMin to it bit for bit.
func solveMaxMinRef(resources []*resource, flows []*activity) {
	if len(flows) == 0 {
		return
	}
	byID := func(a, b *activity) int { return cmp.Compare(a.id, b.id) }
	slices.SortFunc(resources, func(a, b *resource) int { return int(a.order) - int(b.order) })
	slices.SortFunc(flows, byID)

	for _, r := range resources {
		r.remCap = r.capacity
		n := 0
		for _, f := range r.flows {
			if f.attached && !f.done {
				n++
			}
		}
		r.nUnfixed = n
	}
	for _, f := range flows {
		f.fixed = false
	}

	for fixedCount := 0; fixedCount < len(flows); {
		var bottleneck *resource
		best := 0.0
		for _, r := range resources {
			if r.nUnfixed == 0 {
				continue
			}
			share := r.remCap / float64(r.nUnfixed)
			if bottleneck == nil || share < best {
				bottleneck = r
				best = share
			}
		}
		if bottleneck == nil {
			for _, f := range flows {
				if !f.fixed {
					f.rate = 1e30
					f.fixed = true
					fixedCount++
				}
			}
			return
		}
		if best < 0 {
			best = 0
		}
		for _, f := range slices.SortedFunc(slices.Values(bottleneck.flows), byID) {
			if f.fixed || !f.attached || f.done {
				continue
			}
			f.rate = best
			f.fixed = true
			fixedCount++
			for _, r := range f.resources {
				r.remCap -= best
				if r.remCap < 0 {
					r.remCap = 0
				}
				r.nUnfixed--
			}
		}
	}
}

// FuzzMaxMinMatchesReference solves random components with both solvers
// and requires every rate to be bit-identical. Capacities come from a
// short list, so equal shares (the bottleneck tie) and zero capacities are
// common; flow ids are random, so flows attach out of id order; ranks are
// a random permutation; and solveMaxMin sees its arguments shuffled.
func FuzzMaxMinMatchesReference(f *testing.F) {
	f.Add([]byte{3, 1, 1, 2, 6, 0, 1, 7, 0, 2, 3, 0, 1, 9, 4, 0, 5, 2, 0})
	f.Add([]byte{5, 0, 4, 4, 1, 2, 12, 7, 255, 3, 9, 200, 1, 6, 33, 17, 8, 128, 64, 2, 250, 11})
	f.Add([]byte{11, 6, 5, 6, 5, 6, 5, 6, 5, 6, 5, 6, 5, 23, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13})
	// Equal shares on two resources whose scan order and rank order
	// disagree: only the rank tie-break gives the reference's rates.
	f.Add([]byte("c1%1%1%700$00$"))
	caps := []float64{0, 1, 2, 3, 10, 0.1, 1e9, 7}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nRes := 1 + next()%12
		ranks := rand.New(rand.NewPCG(uint64(next()), 1)).Perm(nRes)
		resources := make([]*resource, nRes)
		for i := range resources {
			resources[i] = &resource{order: int32(ranks[i]), capacity: caps[next()%len(caps)]}
		}
		nFlows := next() % 32
		flows := make([]*activity, nFlows)
		for i := range flows {
			mask := next() | next()<<8
			var rs []*resource
			for j, r := range resources {
				if mask>>j&1 == 1 {
					rs = append(rs, r)
				}
			}
			if len(rs) == 0 {
				rs = append(rs, resources[mask%nRes])
			}
			fl := &activity{id: int64(next())*32 + int64(i), attached: true, resources: rs, heapIdx: -1}
			for _, r := range rs {
				r.addFlow(fl)
			}
			flows[i] = fl
		}

		solveMaxMinRef(slices.Clone(resources), slices.Clone(flows))
		want := make(map[*activity]float64, nFlows)
		for _, fl := range flows {
			want[fl] = fl.rate
			fl.rate = math.NaN()
		}
		shuffle := rand.New(rand.NewPCG(uint64(next()), 2))
		shuffle.Shuffle(nRes, func(i, j int) { resources[i], resources[j] = resources[j], resources[i] })
		shuffle.Shuffle(nFlows, func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
		solveMaxMin(resources, flows)
		for _, fl := range flows {
			if math.Float64bits(fl.rate) != math.Float64bits(want[fl]) {
				t.Fatalf("flow %d: rate %v, reference %v", fl.id, fl.rate, want[fl])
			}
		}
	})
}

// TestFlowListStaysOrdered interleaves out-of-order attaches, detaches
// and a resource crash, and checks after every step that each flow list
// holds exactly the attached flows, in id order.
func TestFlowListStaysOrdered(t *testing.T) {
	e := New(testPlatform(), nil)
	a, b := e.hosts["c-1"], e.links["lnk:c-1"]
	want := map[*resource][]int64{}
	flows := map[int64]*activity{}
	check := func(step string) {
		t.Helper()
		for _, r := range []*resource{a, b} {
			var got []int64
			for _, f := range r.flows {
				got = append(got, f.id)
			}
			exp := slices.Sorted(slices.Values(want[r]))
			if !slices.Equal(got, exp) {
				t.Fatalf("after %s: %s holds %v, want %v", step, r.name, got, exp)
			}
		}
	}
	attach := func(id int64, rs ...*resource) {
		f := &activity{id: id, attached: true, resources: rs, heapIdx: -1}
		flows[id] = f
		for _, r := range rs {
			r.addFlow(f)
			want[r] = append(want[r], id)
		}
		check(fmt.Sprintf("attach %d", id))
	}
	detach := func(id int64) {
		f := flows[id]
		e.complete(f)
		for _, r := range f.resources {
			want[r] = slices.DeleteFunc(want[r], func(x int64) bool { return x == id })
		}
		check(fmt.Sprintf("detach %d", id))
	}

	attach(5, a)
	attach(2, a, b)
	attach(9, a, b)
	attach(1, b)
	attach(7, a)
	attach(3, a, b)
	detach(9)
	attach(0, a)
	detach(5)
	attach(4, a, b)
	detach(0)

	e.takeDown(b, trace.StateLinkDown, trace.MetricBandwidth)
	for _, r := range []*resource{a, b} {
		want[r] = slices.DeleteFunc(want[r], func(id int64) bool { return slices.Contains(flows[id].resources, b) })
	}
	check("takeDown " + b.name)

	attach(8, a)
	attach(6, a)
	detach(7)
	attach(10, a)
	check("end")
}
