package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"viva/internal/fault"
	"viva/internal/trace"
)

func TestStateTracing(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	e.TraceStates(true)
	e.Spawn("worker", "c-1", func(c *Ctx) {
		c.Execute(500) // 5s of compute
		c.Sleep(2)
		c.Send("mb", nil, 1000)
	})
	e.Spawn("sink", "c-2", func(c *Ctx) {
		c.Recv("mb")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Process resources declared under their hosts.
	p := tr.Resource("worker")
	if p == nil || p.Type != "process" || p.Parent != "c-1" {
		t.Fatalf("process resource = %+v", p)
	}
	if got := tr.StateAt("worker", 2); got != "compute" {
		t.Errorf("state at t=2: %q, want compute", got)
	}
	if got := tr.StateAt("worker", 6); got != "sleep" {
		t.Errorf("state at t=6: %q, want sleep", got)
	}
	if got := tr.StateAt("worker", 7.5); got != "send" {
		t.Errorf("state at t=7.5: %q, want send", got)
	}
	// The sink waits in recv from t=0 until the message lands at t=8.
	if got := tr.StateAt("sink", 4); got != "recv" {
		t.Errorf("sink state at t=4: %q, want recv", got)
	}
	// Durations add up.
	d := tr.StateDurations("worker", 0, 10)
	near(t, "compute duration", d["compute"], 5)
	near(t, "sleep duration", d["sleep"], 2)
	near(t, "send duration", d["send"], 1)
}

func TestStateTracingOffByDefault(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	e.Spawn("a", "c-1", func(c *Ctx) { c.Execute(100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tr.Resource("a") != nil {
		t.Error("process resource declared without TraceStates")
	}
	if len(tr.StatefulResources()) != 0 {
		t.Error("states recorded without TraceStates")
	}
}

func TestSetHostPowerSlowdown(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	var end float64
	e.Spawn("job", "c-1", func(c *Ctx) {
		c.Execute(1000) // at 100 flop/s would take 10s
		end = c.Now()
	})
	e.Spawn("operator", "c-2", func(c *Ctx) {
		c.Sleep(5) // after 500 flops done…
		if err := c.SetHostPower("c-1", 50); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 500 flops at 100, then 500 at 50: 5 + 10 = 15 s.
	near(t, "slowed exec end", end, 15)
	// The power timeline records the change.
	if got := tr.Timeline("c-1", trace.MetricPower).At(3); got != 100 {
		t.Errorf("power at t=3: %g", got)
	}
	if got := tr.Timeline("c-1", trace.MetricPower).At(7); got != 50 {
		t.Errorf("power at t=7: %g", got)
	}
}

func TestSetHostPowerOutageAndRecovery(t *testing.T) {
	e := New(testPlatform(), nil)
	var end float64
	e.Spawn("job", "c-1", func(c *Ctx) {
		c.Execute(1000)
		end = c.Now()
	})
	e.Spawn("operator", "c-2", func(c *Ctx) {
		c.Sleep(2)
		if err := c.SetHostPower("c-1", 0); err != nil { // outage
			t.Error(err)
		}
		c.Sleep(3)
		if err := c.SetHostPower("c-1", 200); err != nil { // comes back faster
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 200 flops in 2s, outage 3s, remaining 800 at 200 = 4s: end at 9.
	near(t, "outage exec end", end, 9)
}

func TestSetHostPowerErrors(t *testing.T) {
	for _, tc := range []struct {
		host  string
		power float64
		ok    bool
	}{
		{"ghost", 10, false},
		{"c-1", -1, false},
		{"c-1", math.Inf(-1), false},
		{"c-1", math.NaN(), false},
		{"c-1", math.Inf(1), false},
		{"c-1", 0, true},
		{"c-1", 1e300, true},
	} {
		e := New(testPlatform(), nil)
		if err := e.SetHostPower(tc.host, tc.power); (err == nil) != tc.ok {
			t.Errorf("SetHostPower(%q, %g) = %v, want ok %v", tc.host, tc.power, err, tc.ok)
		}
	}
}

// A message size must be a finite non-negative number: a send of any
// other size fails the run instead of spreading NaN or Inf through the
// flow rates and the clock.
func TestSendRejectsNonFiniteSize(t *testing.T) {
	for _, size := range []float64{-1, math.Inf(-1), math.NaN(), math.Inf(1)} {
		e := New(testPlatform(), nil)
		e.Spawn("sender", "c-1", func(c *Ctx) { c.Send("mb", nil, size) })
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), "not a finite non-negative number") {
			t.Errorf("send of size %g: Run = %v, want the size refused", size, err)
		}
	}
}

// The lazy component-based invalidation must be an optimisation only:
// with full recomputation the simulation produces the exact same trace,
// at every combination of the tracing and fault knobs. Each combination
// is also run twice to pin run-to-run reproducibility.
func TestLazyAndFullRecomputeEquivalent(t *testing.T) {
	run := func(full, cats, states, faults bool) string {
		tr := trace.New()
		e := New(testPlatform(), tr)
		e.SetFullRecompute(full)
		e.TraceCategories(cats)
		e.TraceStates(states)
		if faults {
			sched := fault.MustSchedule(
				fault.Event{Time: 0.5, Kind: fault.LatencySpike, Target: "lnk:c-4", Factor: 0.2},
				fault.Event{Time: 1, Kind: fault.LinkDown, Target: "lnk:c-2"},
				fault.Event{Time: 2, Kind: fault.LinkDegrade, Target: "lnk:c-3", Factor: 0.5},
				fault.Event{Time: 3, Kind: fault.LinkUp, Target: "lnk:c-2"},
				fault.Event{Time: 4, Kind: fault.HostDown, Target: "c-4"},
				fault.Event{Time: 6, Kind: fault.HostUp, Target: "c-4"},
			)
			if err := e.InjectFaults(sched); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i <= 4; i++ {
			host := []string{"c-1", "c-2", "c-3", "c-4"}[i-1]
			mb := []string{"m1", "m2", "m3", "m4"}[i-1]
			cat := []string{"app-a", "app-b"}[i%2]
			flops := float64(100 * i)
			// Fault-tolerant bodies: failed work is retried once after a
			// backoff, further failures are swallowed, so the same code
			// drives both the healthy and the faulted matrix rows.
			e.Spawn("w"+mb, host, func(c *Ctx) {
				c.SetCategory(cat)
				for c.TryExecute(flops) != nil {
					c.Sleep(1)
				}
				for {
					cm := c.Put(mb, nil, 1500)
					if _, err := cm.WaitTimeout(c, 5); err == nil {
						break
					}
					c.Sleep(1)
				}
				c.TryExecute(200)
			})
			peer := []string{"c-2", "c-3", "c-4", "c-1"}[i-1]
			e.Spawn("r"+mb, peer, func(c *Ctx) {
				c.SetCategory(cat)
				for {
					cm := c.Get(mb)
					if _, err := cm.WaitTimeout(c, 5); err == nil {
						break
					}
					c.Sleep(1)
				}
				c.TryExecute(150)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, cats := range []bool{false, true} {
		for _, states := range []bool{false, true} {
			for _, faults := range []bool{false, true} {
				name := fmt.Sprintf("cats=%v/states=%v/faults=%v", cats, states, faults)
				t.Run(name, func(t *testing.T) {
					lazy := run(false, cats, states, faults)
					if full := run(true, cats, states, faults); lazy != full {
						t.Error("lazy and full recomputation produced different traces")
					}
					if again := run(false, cats, states, faults); lazy != again {
						t.Error("same knobs produced different traces across runs")
					}
				})
			}
		}
	}
}

func TestStateRoundTripThroughFormat(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	e.TraceStates(true)
	e.Spawn("p", "c-1", func(c *Ctx) { c.Execute(200); c.Sleep(1) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tr.StatefulResources()) != 1 {
		t.Fatalf("stateful resources = %v", tr.StatefulResources())
	}
	vals := tr.StateValues()
	if len(vals) != 2 || vals[0] != "compute" || vals[1] != "sleep" {
		t.Errorf("state values = %v", vals)
	}
}
