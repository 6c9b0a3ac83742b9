package trace

// Test hooks for the external trace_test package, whose tests need the
// store (which imports trace).

// Scans exposes the direct references At, Integrate, Max and Min are held
// to.
func (tl *Timeline) Scans() (at func(float64) float64, integrate, max, min func(a, b float64) float64) {
	return tl.atScan, tl.integrateScan, tl.maxScan, tl.minScan
}

// IndexChunked (re)builds the timeline's index with chunks of size
// points; later monotone appends keep that size.
func (tl *Timeline) IndexChunked(size int) { tl.buildIndex(size) }
