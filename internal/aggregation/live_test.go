package aggregation

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"viva/internal/trace"
)

// buildLiveTrace declares nHosts hosts under one root so the property
// tests have several series to track.
func buildLiveTrace(t *testing.T, nHosts int) *trace.Trace {
	t.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	for i := 0; i < nHosts; i++ {
		tr.MustDeclareResource(fmt.Sprintf("h%d", i), trace.TypeHost, "root")
	}
	return tr
}

// TestLiveWindowMatchesFullRecompute is the satellite property: across
// random monotone append batches, the incremental tail-window Eq. 1
// stats equal a full TimeAggregate recompute over the same slice —
// exactly, not approximately: the column the appends grow answers as a
// timeline built fresh from the same points would.
func TestLiveWindowMatchesFullRecompute(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := buildLiveTrace(t, 1+rng.Intn(4))
		hosts := tr.ResourcesOfType(trace.TypeHost)
		width := 0.5 + rng.Float64()*10
		lw := NewLiveWindow(tr, width)
		now := 0.0
		app := tr.NewAppender()
		for batch, nBatches := 0, 2+rng.Intn(8); batch < nBatches; batch++ {
			// One batch of monotone appends across random series.
			for i, n := 0, rng.Intn(20); i < n; i++ {
				now += rng.Float64()
				h := hosts[rng.Intn(len(hosts))].Name
				metric := trace.MetricUsage
				if rng.Intn(3) == 0 {
					metric = trace.MetricPower
				}
				if err := app.Set(now, h, metric, rng.Float64()*100); err != nil {
					t.Fatal(err)
				}
			}
			now += rng.Float64()
			slice := TimeSlice{Start: now - width, End: now}
			got := make(map[[2]string][2]float64)
			lw.Advance(now, func(res, met string, integral, mean float64) {
				got[[2]string{res, met}] = [2]float64{integral, mean}
			})
			if len(got) != tr.NumVariables() {
				t.Fatalf("Advance visited %d series, trace has %d", len(got), tr.NumVariables())
			}
			for k, v := range got {
				// A clone would copy the prefixes the appends grew, so
				// the reference is a timeline rebuilt from the points.
				wantI, wantM := TimeAggregate(trace.NewTimeline(tr.Timeline(k[0], k[1]).Points()...), slice)
				if v[0] != wantI || v[1] != wantM {
					t.Logf("seed %d series %v: incremental (%g, %g) != full (%g, %g)",
						seed, k, v[0], v[1], wantI, wantM)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLiveWindowOutOfOrderFallback pins the safety net: an out-of-order
// append rewrites history inside the already-reported region, and the
// next Advance still equals a cold TimeAggregate, as does a window that
// moves backwards.
func TestLiveWindowOutOfOrderFallback(t *testing.T) {
	tr := buildLiveTrace(t, 1)
	lw := NewLiveWindow(tr, 10)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.Set(1, "h0", trace.MetricUsage, 4))
	must(tr.Set(5, "h0", trace.MetricUsage, 8))
	lw.Advance(6, func(string, string, float64, float64) {})

	// Rewrite history inside the already-consumed region.
	must(tr.Set(3, "h0", trace.MetricUsage, 100))
	var gotI, gotM float64
	lw.Advance(7, func(_, _ string, integral, mean float64) { gotI, gotM = integral, mean })
	wantI, wantM := TimeAggregate(tr.Timeline("h0", trace.MetricUsage), TimeSlice{Start: -3, End: 7})
	if gotI != wantI || gotM != wantM {
		t.Fatalf("post-rewrite advance: got (%g, %g), want (%g, %g)", gotI, gotM, wantI, wantM)
	}

	// A rewind of the window itself.
	lw.Advance(5, func(_, _ string, integral, mean float64) { gotI, gotM = integral, mean })
	wantI, wantM = TimeAggregate(tr.Timeline("h0", trace.MetricUsage), TimeSlice{Start: -5, End: 5})
	if gotI != wantI || gotM != wantM {
		t.Fatalf("rewound advance: got (%g, %g), want (%g, %g)", gotI, gotM, wantI, wantM)
	}
}

// TestLiveWindowDiscoversNewSeries checks that timelines appearing after
// construction are picked up on the next Advance.
func TestLiveWindowDiscoversNewSeries(t *testing.T) {
	tr := buildLiveTrace(t, 2)
	lw := NewLiveWindow(tr, 5)
	if err := tr.Set(1, "h0", trace.MetricUsage, 1); err != nil {
		t.Fatal(err)
	}
	lw.Advance(2, func(string, string, float64, float64) {})
	if lw.NumSeries() != 1 {
		t.Fatalf("tracking %d series, want 1", lw.NumSeries())
	}
	if err := tr.Set(3, "h1", trace.MetricUsage, 7); err != nil {
		t.Fatal(err)
	}
	seen := map[string]float64{}
	lw.Advance(4, func(res, _ string, _, mean float64) { seen[res] = mean })
	if lw.NumSeries() != 2 || len(seen) != 2 {
		t.Fatalf("new series not discovered: tracking %d, visited %d", lw.NumSeries(), len(seen))
	}
	wantI, wantM := TimeAggregate(tr.Timeline("h1", trace.MetricUsage), TimeSlice{Start: -1, End: 4})
	_ = wantI
	if seen["h1"] != wantM {
		t.Fatalf("late series mean %g, want %g", seen["h1"], wantM)
	}
}

// NumSeries returns how many timelines the window currently tracks.
func (lw *LiveWindow) NumSeries() int { return len(lw.series) }
