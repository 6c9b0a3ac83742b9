package aggregation

import (
	"math"
	"sync"
	"sync/atomic"

	"viva/internal/obs"
	"viva/internal/trace"
)

// Self-observation of the Eq. 1 cold work: member resolution and the
// invalidations that force it to happen again.
var (
	obsInvalidations = obs.Default.Counter("viva_agg_invalidations_total",
		"Aggregator invalidations (each bumps the epoch compiled build plans key on).")
	obsMemberResolves = obs.Default.Counter("viva_agg_member_resolves_total",
		"Member-list resolutions ((group, type, metric) cold paths).")
)

// epochs hands out aggregator epochs: unique across aggregators, so a
// build plan compiled against one aggregator never matches another.
var epochs atomic.Uint64

// TimeSlice is the temporal neighbourhood Δ of Equation 1: the window
// [Start, End] the analyst selects with the time-slice cursors.
type TimeSlice struct {
	Start, End float64
}

// Width returns End − Start.
func (s TimeSlice) Width() float64 { return s.End - s.Start }

// Valid reports whether the slice has positive width.
func (s TimeSlice) Valid() bool { return s.End > s.Start }

// TimeAggregate is the per-resource temporal half of Equation 1: the
// integral and the time average of ρ(r, ·) over the slice. Degenerate or
// inverted slices yield (0, 0) — unlike Timeline.Mean, a slice is a
// selection the analyst makes, and an invalid selection aggregates to
// nothing.
func TimeAggregate(tl trace.Series, s TimeSlice) (integral, mean float64) {
	integral = tl.Integrate(s.Start, s.End)
	if s.Valid() {
		mean = integral / s.Width()
	}
	return integral, mean
}

// Stats summarises the time-averaged values of one metric over the
// members of a spatial group: Sum is the paper's aggregation (the group's
// value); the other fields are the statistical indicators the paper's
// conclusion proposes so the analyst can spot heterogeneous groups hiding
// behind a flat aggregate.
type Stats struct {
	Count    int     // members carrying the metric
	Sum      float64 // Σ member means — the aggregated value (Eq. 1)
	Mean     float64 // Sum / Count
	Min, Max float64
	Variance float64 // population variance of member means
	Median   float64
}

// memberKey identifies one memoized member list: the entities of one
// resource type under one group that carry one metric.
type memberKey struct {
	group, typ, metric string
}

// memberList is the resolved membership of a (group, type, metric)
// query: entity names in declaration order, their positions among the
// group's leaves (for pairing two lists), and their timelines, so the
// per-frame hot loop touches neither the hierarchy nor the trace's
// variable map.
type memberList struct {
	names []string
	pos   []int32
	tls   []trace.Series
}

// Aggregator evaluates F_{Γ,Δ} over a trace: spatial groups from the
// trace hierarchy × a time slice. Its memo is the slice-invariant half of
// Equation 1: member lists per (group, type, metric) are resolved once
// and reused, replacing per-call hierarchy walks. The slice-dependent
// half is StatsOver, a pure function of the resolved series and the
// slice, so there is no per-slice result to cache or to go stale:
// callers that evaluate many slices over one cut (vizgraph's build plan)
// resolve the series once through Members and call StatsOver per frame.
//
// Queries are safe for concurrent use (the parallel vizgraph build
// shards nodes across goroutines). New values on an existing timeline
// reach the next query directly, since member series read the live
// timelines. A brand-new (resource, metric) pair needs Invalidate, which
// drops the member lists and bumps the epoch that compiled plans key on;
// newly declared resources need a new Aggregator (the hierarchy itself
// is built once).
type Aggregator struct {
	src   Source
	tree  *Tree
	epoch atomic.Uint64

	mu      sync.RWMutex
	members map[memberKey]*memberList
	counts  map[[2]string]int // (group, type) → entity count
}

// NewAggregator builds an aggregator for a source — an in-heap
// *trace.Trace or an out-of-core *store.Store.
func NewAggregator(src Source) (*Aggregator, error) {
	tree, err := BuildTree(src)
	if err != nil {
		return nil, err
	}
	ag := &Aggregator{
		src:     src,
		tree:    tree,
		members: make(map[memberKey]*memberList),
		counts:  make(map[[2]string]int),
	}
	ag.epoch.Store(epochs.Add(1))
	return ag, nil
}

// Tree returns the hierarchy the aggregator works on.
func (ag *Aggregator) Tree() *Tree { return ag.tree }

// Source returns the underlying data source.
func (ag *Aggregator) Source() Source { return ag.src }

// Trace returns the underlying trace when the aggregator is heap-backed,
// or nil when it works off another Source (an on-disk store). Callers
// that need mutation or full-trace access should hold the *trace.Trace
// themselves; analysis paths should use Source.
func (ag *Aggregator) Trace() *trace.Trace {
	tr, _ := ag.src.(*trace.Trace)
	return tr
}

// Epoch identifies the aggregator's current memo: unique across
// aggregators and bumped by every Invalidate. Anything derived from
// Members (a compiled build plan) stays valid while the epoch holds.
func (ag *Aggregator) Epoch() uint64 { return ag.epoch.Load() }

// Invalidate drops every memoized member list and bumps the epoch. Call
// it after a resource gains a metric it did not previously carry (the
// live streaming publisher calls it every tick). Newly declared
// resources need a new Aggregator (the hierarchy itself is built once).
func (ag *Aggregator) Invalidate() {
	ag.mu.Lock()
	ag.members = make(map[memberKey]*memberList)
	ag.counts = make(map[[2]string]int)
	ag.epoch.Store(epochs.Add(1))
	ag.mu.Unlock()
	obsInvalidations.Inc()
	ag.tree.invalidate()
}

// resolveMembers returns the memoized member list of a (group, type,
// metric) query, computing it on first use.
func (ag *Aggregator) resolveMembers(group, typ, metric string) (*memberList, error) {
	key := memberKey{group, typ, metric}
	ag.mu.RLock()
	ml := ag.members[key]
	ag.mu.RUnlock()
	if ml != nil {
		return ml, nil
	}
	obsMemberResolves.Inc()
	leaves, err := ag.tree.leavesUnder(group)
	if err != nil {
		return nil, err
	}
	ml = &memberList{}
	for i, l := range leaves {
		if typ != "" && ag.tree.Node(l).Type != typ {
			continue
		}
		if !ag.src.HasMetric(l, metric) {
			continue
		}
		ml.names = append(ml.names, l)
		ml.pos = append(ml.pos, int32(i))
		ml.tls = append(ml.tls, ag.src.Series(l, metric))
	}
	ag.mu.Lock()
	// A racing goroutine may have resolved the same key; keep one copy so
	// every caller shares the same backing arrays.
	if prev := ag.members[key]; prev != nil {
		ml = prev
	} else {
		ag.members[key] = ml
	}
	ag.mu.Unlock()
	return ml, nil
}

// Members returns the series of the entities of the given type under
// group that carry the metric, in declaration order (typ == "" accepts
// every type): the member set Stats aggregates. The slice is memoized
// and shared; callers must not modify it.
func (ag *Aggregator) Members(group, typ, metric string) ([]trace.Series, error) {
	ml, err := ag.resolveMembers(group, typ, metric)
	if err != nil {
		return nil, err
	}
	return ml.tls, nil
}

// MemberPairs returns, for the entities of the given type under group
// that carry both metrics a and b, their a and b series paired index by
// index in declaration order. Members carrying only one of the two are
// left out. The slices are fresh.
func (ag *Aggregator) MemberPairs(group, typ, a, b string) (as, bs []trace.Series, err error) {
	la, err := ag.resolveMembers(group, typ, a)
	if err != nil {
		return nil, nil, err
	}
	lb, err := ag.resolveMembers(group, typ, b)
	if err != nil {
		return nil, nil, err
	}
	// Both lists are subsequences of the group's leaves, so a merge walk
	// over leaf positions pairs them.
	for i, j := 0, 0; i < len(la.pos) && j < len(lb.pos); {
		switch {
		case la.pos[i] < lb.pos[j]:
			i++
		case la.pos[i] > lb.pos[j]:
			j++
		default:
			as = append(as, la.tls[i])
			bs = append(bs, lb.tls[j])
			i++
			j++
		}
	}
	return as, bs, nil
}

// TypesUnder returns the sorted leaf resource types under a group,
// memoized. The returned slice is shared: callers must not modify it.
func (ag *Aggregator) TypesUnder(group string) ([]string, error) {
	return ag.tree.typesUnder(group)
}

// TypeCount returns how many atomic entities of the given type live under
// the group (regardless of which metrics they carry), memoized.
func (ag *Aggregator) TypeCount(group, typ string) (int, error) {
	key := [2]string{group, typ}
	ag.mu.RLock()
	n, ok := ag.counts[key]
	ag.mu.RUnlock()
	if ok {
		return n, nil
	}
	leaves, err := ag.tree.leavesUnder(group)
	if err != nil {
		return 0, err
	}
	n = 0
	for _, l := range leaves {
		if ag.tree.Node(l).Type == typ {
			n++
		}
	}
	ag.mu.Lock()
	ag.counts[key] = n
	ag.mu.Unlock()
	return n, nil
}

// LeafMeans returns, for every atomic entity of the given resource type
// under group that carries the metric, the entity name and its time-mean
// over the slice. typ == "" accepts every type. Order follows declaration
// order. The returned slices are fresh copies the caller may keep.
func (ag *Aggregator) LeafMeans(group, typ, metric string, s TimeSlice) ([]string, []float64, error) {
	ml, err := ag.resolveMembers(group, typ, metric)
	if err != nil {
		return nil, nil, err
	}
	if len(ml.names) == 0 {
		return nil, nil, nil
	}
	names := make([]string, len(ml.names))
	copy(names, ml.names)
	means := make([]float64, len(ml.tls))
	for i, tl := range ml.tls {
		_, means[i] = TimeAggregate(tl, s)
	}
	return names, means, nil
}

// Stats computes the spatial aggregation of a metric over a group for the
// slice. Only leaves of the given type carrying the metric participate
// (typ == "" accepts all). It is StatsOver on the memoized member series.
func (ag *Aggregator) Stats(group, typ, metric string, s TimeSlice) (Stats, error) {
	ml, err := ag.resolveMembers(group, typ, metric)
	if err != nil {
		return Stats{}, err
	}
	return StatsOver(ml.tls, s), nil
}

// smallMembers is the member count StatsOver evaluates in a stack buffer;
// larger groups borrow a pooled one.
const smallMembers = 16

// StatsOver is Equation 1 over resolved member series: each member's
// time mean over the slice (TimeAggregate), summarised in member order.
// It is a pure function of its arguments, so disjoint member sets can be
// evaluated concurrently and the result never depends on what was
// evaluated before.
func StatsOver(series []trace.Series, s TimeSlice) Stats {
	if len(series) <= smallMembers {
		var small [smallMembers]float64
		st, _ := statsInto(small[:0], series, s)
		return st
	}
	buf := scratchPool.Get().(*[]float64)
	st, means := statsInto((*buf)[:0], series, s)
	*buf = means
	scratchPool.Put(buf)
	return st
}

// statsInto is StatsOver with the member means appended to dst, which
// it returns (reordered by the median selection).
func statsInto(dst []float64, series []trace.Series, s TimeSlice) (Stats, []float64) {
	for _, tl := range series {
		_, mean := TimeAggregate(tl, s)
		dst = append(dst, mean)
	}
	return summariseInPlace(dst), dst
}

// MaxRatioOver returns the highest member ratio b-mean / a-mean over the
// slice for paired member series (MemberPairs), skipping members whose
// a-mean is not positive; 0 when there is none.
func MaxRatioOver(as, bs []trace.Series, s TimeSlice) float64 {
	var max float64
	for i, a := range as {
		_, aMean := TimeAggregate(a, s)
		if aMean <= 0 {
			continue
		}
		_, bMean := TimeAggregate(bs[i], s)
		if u := bMean / aMean; u > max {
			max = u
		}
	}
	return max
}

// Sum is shorthand for Stats(...).Sum: the group's aggregated value.
func (ag *Aggregator) Sum(group, typ, metric string, s TimeSlice) (float64, error) {
	st, err := ag.Stats(group, typ, metric, s)
	return st.Sum, err
}

// Utilization returns the ratio of a group's aggregated usage metric to
// its aggregated capacity metric over the slice (0 when the capacity sums
// to 0). For hosts this is usage/power; for links traffic/bandwidth —
// the fill proportion of the paper's node shapes.
func (ag *Aggregator) Utilization(group, typ, usageMetric, capacityMetric string, s TimeSlice) (float64, error) {
	use, err := ag.Stats(group, typ, usageMetric, s)
	if err != nil {
		return 0, err
	}
	cap, err := ag.Stats(group, typ, capacityMetric, s)
	if err != nil {
		return 0, err
	}
	if cap.Sum <= 0 {
		return 0, nil
	}
	u := use.Sum / cap.Sum
	if u < 0 {
		u = 0
	}
	return u, nil
}

// Availability returns the mean availability of a group's entities of
// the given type over the slice: 1 when every member was up for the
// whole window, 0 when all were down throughout, and the time-weighted
// fraction in between (a degraded member contributes its degrade
// factor). Traces recorded without fault injection carry no
// availability metric; such groups report fully available.
func (ag *Aggregator) Availability(group, typ string, s TimeSlice) (float64, error) {
	st, err := ag.Stats(group, typ, trace.MetricAvailability, s)
	if err != nil {
		return 0, err
	}
	return AvailabilityOf(st), nil
}

// AvailabilityOf maps the Stats of the availability metric to a group's
// availability: the clamped member mean, or 1 when no member carries the
// metric.
func AvailabilityOf(st Stats) float64 {
	if st.Count == 0 {
		return 1
	}
	a := st.Mean
	if a < 0 {
		a = 0
	} else if a > 1 {
		a = 1
	}
	return a
}

// MaxMemberRatio returns the highest member utilization (fill-metric mean
// over size-metric mean) inside a group — the saturation-preserving
// aggregation of vizgraph's FillMaxRatio. Members carrying only one of
// the two metrics contribute nothing.
func (ag *Aggregator) MaxMemberRatio(group, typ, fillMetric, sizeMetric string, s TimeSlice) (float64, error) {
	sizes, fills, err := ag.MemberPairs(group, typ, sizeMetric, fillMetric)
	if err != nil {
		return 0, err
	}
	return MaxRatioOver(sizes, fills, s), nil
}

// scratchPool recycles the float buffers of StatsOver and Summarise so
// the per-frame aggregation loop stays allocation-free.
var scratchPool = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}

// Summarise computes the Stats of a sample of member values. The input is
// not modified; the median comes from an expected-O(n) quickselect over a
// pooled scratch copy instead of a full sort.
func Summarise(values []float64) Stats {
	if len(values) == 0 {
		return Stats{}
	}
	buf := scratchPool.Get().(*[]float64)
	scratch := append((*buf)[:0], values...)
	st := summariseInPlace(scratch)
	*buf = scratch
	scratchPool.Put(buf)
	return st
}

// summariseInPlace is Summarise over a sample it may reorder: the moments
// are taken in input order first, then the median selection permutes it.
func summariseInPlace(values []float64) Stats {
	st := Stats{Count: len(values)}
	if st.Count == 0 {
		return st
	}
	st.Min = math.Inf(1)
	st.Max = math.Inf(-1)
	for _, v := range values {
		st.Sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = st.Sum / float64(st.Count)
	var ss float64
	for _, v := range values {
		d := v - st.Mean
		ss += d * d
	}
	st.Variance = ss / float64(st.Count)
	st.Median = medianSelect(values)
	return st
}

// medianSelect returns the median of s, reordering s in place.
func medianSelect(s []float64) float64 {
	mid := len(s) / 2
	quickselect(s, mid)
	if len(s)%2 == 1 {
		return s[mid]
	}
	// Even count: the lower middle is the maximum of the left partition
	// (quickselect left everything <= s[mid] before index mid).
	lo := s[0]
	for _, v := range s[1:mid] {
		if v > lo {
			lo = v
		}
	}
	return (lo + s[mid]) / 2
}

// quickselect partially orders s so that s[k] holds the k-th smallest
// value, everything before it is <= s[k], and everything after is >=
// s[k]. Median-of-three pivoting keeps adversarial inputs rare; the
// selected value is a pure order statistic, so the result does not
// depend on pivot choices.
func quickselect(s []float64, k int) {
	lo, hi := 0, len(s)-1
	for hi > lo {
		if hi-lo < 12 {
			// Insertion sort for small ranges.
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && s[j] < s[j-1]; j-- {
					s[j], s[j-1] = s[j-1], s[j]
				}
			}
			return
		}
		// Median-of-three pivot, parked at lo.
		mid := lo + (hi-lo)/2
		if s[mid] < s[lo] {
			s[mid], s[lo] = s[lo], s[mid]
		}
		if s[hi] < s[lo] {
			s[hi], s[lo] = s[lo], s[hi]
		}
		if s[hi] < s[mid] {
			s[hi], s[mid] = s[mid], s[hi]
		}
		s[lo], s[mid] = s[mid], s[lo]
		pivot := s[lo]
		i, j := lo, hi+1
		for {
			for i++; i <= hi && s[i] < pivot; i++ {
			}
			for j--; s[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			s[i], s[j] = s[j], s[i]
		}
		s[lo], s[j] = s[j], s[lo]
		switch {
		case j == k:
			return
		case j > k:
			hi = j - 1
		default:
			lo = j + 1
		}
	}
}
