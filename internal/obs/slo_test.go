package obs_test

import (
	"strings"
	"testing"

	"viva/internal/obs"
)

func TestSLOObserve(t *testing.T) {
	r := obs.NewRegistry()
	s := obs.NewSLO(r, "test_push", 0.1, 0.99)
	if s.Observe(0.05) {
		t.Fatal("under-target observation reported as breach")
	}
	if !s.Observe(0.5) {
		t.Fatal("over-target observation not reported as breach")
	}
	if got := s.ConsecBreaches(); got != 1 {
		t.Fatalf("ConsecBreaches = %d, want 1", got)
	}
	s.Observe(0.5)
	s.Observe(0.5)
	if got := s.ConsecBreaches(); got != 3 {
		t.Fatalf("ConsecBreaches = %d, want 3", got)
	}
	if s.BurnRate() <= 1 {
		// Three breaches in four observations burns the 1% budget far
		// faster than allowed.
		t.Fatalf("BurnRate = %g, want > 1 while breaching", s.BurnRate())
	}
	s.Observe(0.01)
	if got := s.ConsecBreaches(); got != 0 {
		t.Fatalf("ConsecBreaches = %d after recovery, want 0", got)
	}

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`viva_slo_target{slo="test_push"} 0.1`,
		`viva_slo_objective{slo="test_push"} 0.99`,
		`viva_slo_good_total{slo="test_push"} 2`,
		`viva_slo_breach_total{slo="test_push"} 3`,
		`viva_slo_burn_rate{slo="test_push"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("test_q_seconds", "quantile test", []float64{0.1, 0.2, 0.5, 1})
	if h.Quantile(0.99) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for i := 0; i < 90; i++ {
		h.Observe(0.05) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.4) // third bucket
	}
	p50 := h.Quantile(0.50)
	if p50 <= 0 || p50 > 0.1 {
		t.Fatalf("p50 = %g, want within first bucket (0, 0.1]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 0.2 || p99 > 0.5 {
		t.Fatalf("p99 = %g, want within third bucket (0.2, 0.5]", p99)
	}
	// Past the last bound clamps to it.
	h2 := r.Histogram("test_q2_seconds", "quantile clamp test", []float64{0.1})
	h2.Observe(5)
	if got := h2.Quantile(0.99); got != 0.1 {
		t.Fatalf("overflow quantile = %g, want clamp to 0.1", got)
	}
}
