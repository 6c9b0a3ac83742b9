package aggregation

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"viva/internal/trace"
)

// TestSummariseMedianMatchesSort is the quickselect-vs-sort property: the
// median is a pure order statistic, so it must equal the sorted
// reference exactly, and Summarise must leave its input untouched.
func TestSummariseMedianMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		n := rr.Intn(200)
		values := make([]float64, n)
		for i := range values {
			// Quantised values make ties common — the hard case for
			// selection code.
			values[i] = float64(rr.Intn(40)-20) / 4
		}
		input := append([]float64(nil), values...)
		st := Summarise(values)
		for i := range values {
			if values[i] != input[i] {
				t.Log("Summarise modified its input")
				return false
			}
		}
		if n == 0 {
			return st.Median == 0
		}
		sorted := append([]float64(nil), values...)
		sort.Float64s(sorted)
		want := sorted[n/2]
		if n%2 == 0 {
			want = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		if st.Median != want {
			t.Logf("Median(%v) = %g, want %g", values, st.Median, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: r}); err != nil {
		t.Error(err)
	}
}

// TestAggregatorStatsCache pins what the aggregator memoizes and what it
// does not. Stats results are not cached: a repeated query recomputes the
// same bits, and a timeline mutation reaches every slice at once —
// including slices queried before it — without Invalidate. What is
// memoized is the member list, so a metric a resource never carried needs
// Invalidate, which also bumps the epoch compiled build plans key on.
func TestAggregatorStatsCache(t *testing.T) {
	tr := sampleTrace(t)
	ag, err := NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	s1 := TimeSlice{0, 10}
	first, err := ag.Stats("grid", trace.TypeHost, trace.MetricPower, s1)
	if err != nil {
		t.Fatal(err)
	}
	again, err := ag.Stats("grid", trace.TypeHost, trace.MetricPower, s1)
	if err != nil {
		t.Fatal(err)
	}
	if first != again {
		t.Fatalf("repeated query differs: %+v vs %+v", first, again)
	}

	// Timeline mutation: the new value reaches a fresh slice and the
	// already-queried one alike, and the epoch does not move.
	epoch := ag.Epoch()
	if err := tr.Set(5, "h1", trace.MetricPower, 500); err != nil {
		t.Fatal(err)
	}
	st, err := ag.Stats("grid", trace.TypeHost, trace.MetricPower, TimeSlice{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "fresh slice after timeline mutation", st.Sum, 500+200+300)
	st, err = ag.Stats("grid", trace.TypeHost, trace.MetricPower, s1)
	if err != nil {
		t.Fatal(err)
	}
	near(t, "queried slice after timeline mutation", st.Sum, (100*5+500*5)/10.0+200+300)
	if ag.Epoch() != epoch {
		t.Fatal("a query moved the epoch")
	}

	// A metric the resource never carried needs Invalidate: the memoized
	// member list for (grid, host, usage) was resolved as empty.
	if st, _ := ag.Stats("grid", trace.TypeHost, trace.MetricUsage, s1); st.Count != 0 {
		t.Fatalf("usage Count before tracing = %d, want 0", st.Count)
	}
	if err := tr.Set(0, "h1", trace.MetricUsage, 42); err != nil {
		t.Fatal(err)
	}
	if st, _ := ag.Stats("grid", trace.TypeHost, trace.MetricUsage, s1); st.Count != 0 {
		t.Fatalf("stale member list should still be served, got Count %d", st.Count)
	}
	ag.Invalidate()
	if ag.Epoch() == epoch {
		t.Fatal("Invalidate kept the epoch")
	}
	st, err = ag.Stats("grid", trace.TypeHost, trace.MetricUsage, s1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 1 || st.Sum != 42 {
		t.Fatalf("after Invalidate: Count %d Sum %g, want 1 and 42", st.Count, st.Sum)
	}

	// Epochs are unique across aggregators too.
	other, err := NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	if other.Epoch() == ag.Epoch() || other.Epoch() == epoch {
		t.Fatalf("epoch %d reused by a second aggregator", other.Epoch())
	}
}

// TestStatsOverMatchesSummarise pins StatsOver to Summarise over the
// member means, bit for bit, on both sides of the stack-buffer size.
func TestStatsOverMatchesSummarise(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, smallMembers, smallMembers + 1, 100} {
		tr := trace.New()
		var series []trace.Series
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("h%d", i)
			tr.MustDeclareResource(name, trace.TypeHost, "")
			for k := 0; k < 5; k++ {
				if err := tr.Set(float64(k)*2+r.Float64(), name, trace.MetricPower, float64(r.Intn(9))-2); err != nil {
					t.Fatal(err)
				}
			}
			series = append(series, tr.Series(name, trace.MetricPower))
		}
		s := TimeSlice{r.Float64() * 3, 4 + r.Float64()*6}
		means := make([]float64, n)
		for i, tl := range series {
			_, means[i] = TimeAggregate(tl, s)
		}
		if got, want := StatsOver(series, s), Summarise(means); got != want {
			t.Errorf("n=%d: StatsOver %+v, Summarise %+v", n, got, want)
		}
	}
}

// TestMemberPairs pins the pairing behind FillMaxRatio: only members
// carrying both metrics pair up, wherever they sit in declaration order.
func TestMemberPairs(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	for _, h := range []string{"a", "b", "c", "d"} {
		tr.MustDeclareResource(h, trace.TypeHost, "g")
	}
	set := func(r, m string, v float64) {
		if err := tr.Set(0, r, m, v); err != nil {
			t.Fatal(err)
		}
	}
	// Size on every host, fill only on b and d: a size-only member sits
	// before each paired one.
	for _, h := range []string{"a", "b", "c", "d"} {
		set(h, trace.MetricPower, 10)
	}
	set("b", trace.MetricUsage, 2)
	set("d", trace.MetricUsage, 7)
	set("c", trace.MetricUsage+":x", 1) // a third metric, unrelated
	tr.SetEnd(1)
	ag, err := NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	sizes, fills, err := ag.MemberPairs("g", trace.TypeHost, trace.MetricPower, trace.MetricUsage)
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || len(fills) != 2 {
		t.Fatalf("got %d/%d pairs, want 2", len(sizes), len(fills))
	}
	u, err := ag.MaxMemberRatio("g", trace.TypeHost, trace.MetricUsage, trace.MetricPower, TimeSlice{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "max member ratio", u, 0.7)
}

// TestAggregatorConcurrentQueries hammers one aggregator from many
// goroutines mixing groups and slices; under -race this pins the lock
// discipline of the member, count, type and stats caches.
func TestAggregatorConcurrentQueries(t *testing.T) {
	tr := sampleTrace(t)
	ag, err := NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	groups := []string{"grid", "site1", "c1", "c2"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				group := groups[(g+i)%len(groups)]
				s := TimeSlice{0, float64(1 + i%10)}
				if _, err := ag.Stats(group, trace.TypeHost, trace.MetricPower, s); err != nil {
					t.Error(err)
					return
				}
				if _, err := ag.TypeCount(group, trace.TypeHost); err != nil {
					t.Error(err)
					return
				}
				if _, err := ag.TypesUnder(group); err != nil {
					t.Error(err)
					return
				}
				if _, err := ag.MaxMemberRatio(group, trace.TypeHost, trace.MetricPower, trace.MetricPower, s); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Sanity: after the storm the caches still answer correctly.
	st, err := ag.Stats("grid", trace.TypeHost, trace.MetricPower, TimeSlice{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	near(t, "post-storm sum", st.Sum, 600)
}
