package obs_test

import (
	"testing"

	"viva/internal/obs"
)

// BenchmarkObsOverhead measures the full per-iteration cost an
// instrumented hot loop pays: one counter increment plus one span
// start/stop recording into an open frame and its stage histogram. The
// contract is 0 allocs/op and a few tens of nanoseconds — cheap enough
// to leave on in the layout step and the simulation event loop.
func BenchmarkObsOverhead(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_hot_total", "hot-loop counter")
	ring := obs.NewRing(256)
	seq := ring.BeginFrame()
	defer ring.EndFrame(seq)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
		sp := ring.StartSpan(obs.StageLayout)
		sp.End()
	}
}

// BenchmarkObsFlightRecord isolates one flight-recorder event: the
// always-on black box must stay a handful of atomic stores, 0 allocs.
func BenchmarkObsFlightRecord(b *testing.B) {
	f := obs.NewFlightRecorder(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Record(obs.FlightShed, uint64(i), 1, 2)
	}
}

// BenchmarkObsCounter isolates the counter increment.
func BenchmarkObsCounter(b *testing.B) {
	r := obs.NewRegistry()
	c := r.Counter("bench_counter_total", "counter alone")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsSpanNoFrame measures the span cost when no frame is open —
// what batch tools pay: two clock reads and the stage histogram.
func BenchmarkObsSpanNoFrame(b *testing.B) {
	ring := obs.NewRing(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := ring.StartSpan(obs.StageLayout)
		sp.End()
	}
}
