package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// TestSmoke runs every workload on the tiny two-cluster demo scale,
// untraced and traced, and checks that every oracle passes and every
// named metric is printed. Run it from this directory with `go test`.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	var names []string
	for w := range workloads {
		names = append(names, w)
	}
	sort.Strings(names)
	for _, w := range names {
		for _, mode := range []int{0, 1} {
			r, err := newRunner(w, scales["tiny"], 7, 0.5, mode)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.exec(work)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w, mode, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d: %v",
					w, mode, res.Correct, res.Failed, res.Attempted, r.failures)
			}
			defs := endToEnd
			if mode == 1 {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w, mode, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or unit %q", w, mode, d.name, m.Unit)
				}
				if mode == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var cfg struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &cfg); err != nil {
		t.Fatal(err)
	}
	if len(cfg.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(cfg.Workloads), len(workloads))
	}
	for _, w := range cfg.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", what, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", cfg.EndToEnd, endToEnd)
	same("per_layer", cfg.PerLayer, perLayer)
}
