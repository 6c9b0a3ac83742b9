package trace

import (
	"math"
	"math/rand"
	"testing"
)

// scanStart is the window start by definition: the earliest point of any
// timeline, 0 when there is none.
func scanStart(tr *Trace) float64 {
	start, first := 0.0, true
	for _, k := range tr.varOrder {
		if tl := tr.vars[k]; tl.Len() > 0 && (first || tl.FirstTime() < start) {
			start, first = tl.FirstTime(), false
		}
	}
	return start
}

// The tracked window start must equal the scan over every timeline after
// any mix of in-order and out-of-order Set/Add writes through the trace
// and through an appender, rejected non-finite writes, and CompactAll.
func TestWindowStartTracksWrites(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		names := []string{"a", "b", "c", "d"}
		for _, n := range names {
			tr.MustDeclareResource(n, TypeHost, "")
		}
		app := tr.NewAppender()
		clock := 100 * rng.Float64()
		for i := 0; i < 400; i++ {
			res := names[rng.Intn(len(names))]
			metric := []string{MetricPower, MetricUsage}[rng.Intn(2)]
			at := clock
			if rng.Intn(4) == 0 {
				at = clock - 200*rng.Float64() // out of order, possibly before every point
			} else {
				clock += rng.Float64()
			}
			v := float64(rng.Intn(3)) // repeats give CompactAll work
			if rng.Intn(20) == 0 {
				v = math.NaN() // rejected, but still materializes the timeline
			}
			var err error
			switch rng.Intn(4) {
			case 0:
				err = tr.Set(at, res, metric, v)
			case 1:
				err = tr.Add(at, res, metric, v)
			case 2:
				err = app.Set(at, res, metric, v)
			default:
				err = app.Add(at, res, metric, v)
			}
			if err != nil && !math.IsNaN(v) {
				t.Fatal(err)
			}
			if start, _ := tr.Window(); start != scanStart(tr) {
				t.Fatalf("seed %d write %d: tracked start %g, scan %g", seed, i, start, scanStart(tr))
			}
		}
		tr.CompactAll()
		if start, _ := tr.Window(); start != scanStart(tr) {
			t.Fatalf("seed %d after CompactAll: tracked start %g, scan %g", seed, start, scanStart(tr))
		}
	}
}
