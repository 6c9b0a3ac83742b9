package trace

import "sort"

// The direct O(n) references the indexed kernel is held to, and Compact,
// which only tests use.

// integrateScan is the direct reference for Integrate: one left-to-right
// pass over the segments inside the window.
func (tl *Timeline) integrateScan(a, b float64) float64 {
	if b <= a || len(tl.pts.Times) == 0 {
		return 0
	}
	var sum float64
	// Position of the first point strictly after a.
	i := sort.Search(len(tl.pts.Times), func(i int) bool { return tl.pts.Times[i] > a })
	cur := a
	val := 0.0
	if i > 0 {
		val = tl.pts.Values[i-1]
	}
	for ; i < len(tl.pts.Times) && tl.pts.Times[i] < b; i++ {
		sum += val * (tl.pts.Times[i] - cur)
		cur = tl.pts.Times[i]
		val = tl.pts.Values[i]
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
	for i := 0; i < len(tl.pts.Times) && tl.pts.Times[i] <= t; i++ {
		v = tl.pts.Values[i]
	}
	return v
}

func (tl *Timeline) extremumScan(a, b float64, better func(x, v float64) bool) float64 {
	if b < a {
		return 0
	}
	v := tl.atScan(a)
	for i := range tl.pts.Times {
		if tl.pts.Times[i] > a && tl.pts.Times[i] <= b && better(tl.pts.Values[i], v) {
			v = tl.pts.Values[i]
		}
	}
	return v
}

// Compact merges consecutive points that carry the same value, preserving
// the function the timeline denotes while shrinking storage. It returns
// the receiver for chaining.
func (tl *Timeline) Compact() *Timeline {
	if len(tl.pts.Times) == 0 {
		return tl
	}
	n := 1
	for i := 1; i < len(tl.pts.Times); i++ {
		if tl.pts.Values[i] != tl.pts.Values[n-1] {
			tl.pts.Times[n], tl.pts.Values[n] = tl.pts.Times[i], tl.pts.Values[i]
			n++
		}
	}
	tl.pts = Chunk{tl.pts.Times[:n], tl.pts.Values[:n], tl.pts.Prefix[:n]}
	tl.reindex(0)
	return tl
}
