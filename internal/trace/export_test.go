package trace

// Test hooks for the external trace_test package, whose tests need the
// store (which imports trace).

// Scans exposes the direct references At, Integrate, Max and Min are held
// to.
func (tl *Timeline) Scans() (at func(float64) float64, integrate, max, min func(a, b float64) float64) {
	return tl.atScan, tl.integrateScan, tl.maxScan, tl.minScan
}

// SetChunkPoints makes heap timelines close chunks of size points until
// the returned function restores the default. Only timelines grown in
// between may be touched in between.
func SetChunkPoints(size int) (restore func()) {
	chunkPoints = size
	return func() { chunkPoints = DefaultChunkPoints }
}
