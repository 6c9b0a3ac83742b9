package trace

import "sort"

// The direct O(n) references the indexed kernel is held to, and Compact,
// which only tests use.

// integrateScan is the direct reference for Integrate: one left-to-right
// pass over the segments inside the window.
func (tl *Timeline) integrateScan(a, b float64) float64 {
	if b <= a || len(tl.times) == 0 {
		return 0
	}
	var sum float64
	// Position of the first point strictly after a.
	i := sort.Search(len(tl.times), func(i int) bool { return tl.times[i] > a })
	cur := a
	val := 0.0
	if i > 0 {
		val = tl.values[i-1]
	}
	for ; i < len(tl.times) && tl.times[i] < b; i++ {
		sum += val * (tl.times[i] - cur)
		cur = tl.times[i]
		val = tl.values[i]
	}
	sum += val * (b - cur)
	return sum
}

// maxScan and minScan are the direct references for Max and Min.
func (tl *Timeline) maxScan(a, b float64) float64 {
	return tl.extremumScan(a, b, func(x, v float64) bool { return x > v })
}

func (tl *Timeline) minScan(a, b float64) float64 {
	return tl.extremumScan(a, b, func(x, v float64) bool { return x < v })
}

// atScan is the direct reference for At.
func (tl *Timeline) atScan(t float64) float64 {
	v := 0.0
	for i := 0; i < len(tl.times) && tl.times[i] <= t; i++ {
		v = tl.values[i]
	}
	return v
}

func (tl *Timeline) extremumScan(a, b float64, better func(x, v float64) bool) float64 {
	if b < a {
		return 0
	}
	v := tl.atScan(a)
	for i := range tl.times {
		if tl.times[i] > a && tl.times[i] <= b && better(tl.values[i], v) {
			v = tl.values[i]
		}
	}
	return v
}

// Compact merges consecutive points that carry the same value, preserving
// the function the timeline denotes while shrinking storage. It returns
// the receiver for chaining.
func (tl *Timeline) Compact() *Timeline {
	tl.idx.Store(nil)
	if len(tl.times) == 0 {
		return tl
	}
	n := 1
	for i := 1; i < len(tl.times); i++ {
		if tl.values[i] != tl.values[n-1] {
			tl.times[n], tl.values[n] = tl.times[i], tl.values[i]
			n++
		}
	}
	tl.times, tl.values = tl.times[:n], tl.values[:n]
	return tl
}
