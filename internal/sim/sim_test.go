package sim

import (
	"math"
	"strings"
	"testing"

	"viva/internal/platform"
	"viva/internal/trace"
)

func testPlatform() *platform.Platform {
	p := platform.New("g")
	p.AddSite("s", platform.SiteConfig{BackboneBandwidth: 1e9, UplinkBandwidth: 1e9})
	p.AddCluster("s", "c", platform.ClusterConfig{
		Hosts:             4,
		HostPower:         100,  // 100 flop/s: easy arithmetic
		HostLinkBandwidth: 1000, // 1000 B/s
		BackboneBandwidth: 1e9,
		UplinkBandwidth:   1e9,
	})
	return p
}

func near(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6*(1+math.Abs(want)) {
		t.Errorf("%s = %g, want %g", what, got, want)
	}
}

func TestExecDuration(t *testing.T) {
	e := New(testPlatform(), nil)
	var end float64
	e.Spawn("a", "c-1", func(c *Ctx) {
		c.Execute(500) // 500 flops at 100 flop/s = 5 s
		end = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "exec end", end, 5)
}

func TestExecSharing(t *testing.T) {
	// Two equal executions on one host each get half the power.
	e := New(testPlatform(), nil)
	var end1, end2 float64
	e.Spawn("a", "c-1", func(c *Ctx) { c.Execute(500); end1 = c.Now() })
	e.Spawn("b", "c-1", func(c *Ctx) { c.Execute(500); end2 = c.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "shared exec end 1", end1, 10)
	near(t, "shared exec end 2", end2, 10)
}

func TestExecStaggeredSharing(t *testing.T) {
	// b starts when a is halfway: a runs 2.5s alone (250 flops), then both
	// share. a needs 250 more at 50 flop/s => ends at 7.5. b needs 500:
	// 250 by t=7.5, then alone at 100 => ends at 10.
	e := New(testPlatform(), nil)
	var endA, endB float64
	e.Spawn("a", "c-1", func(c *Ctx) { c.Execute(500); endA = c.Now() })
	e.Spawn("b", "c-1", func(c *Ctx) { c.Sleep(2.5); c.Execute(500); endB = c.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "endA", endA, 7.5)
	near(t, "endB", endB, 10)
}

func TestSleep(t *testing.T) {
	e := New(testPlatform(), nil)
	var end float64
	e.Spawn("a", "c-1", func(c *Ctx) {
		c.Sleep(3)
		c.Sleep(0)  // no-op
		c.Sleep(-1) // no-op
		end = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "sleep end", end, 3)
}

func TestCommDuration(t *testing.T) {
	// Route c-1 -> c-2: host link (1000 B/s), backbone, host link.
	// 4000 bytes at 1000 B/s = 4 s, no latency in this platform.
	e := New(testPlatform(), nil)
	var got any
	var end float64
	e.Spawn("sender", "c-1", func(c *Ctx) { c.Send("mb", "hello", 4000) })
	e.Spawn("receiver", "c-2", func(c *Ctx) { got = c.Recv("mb"); end = c.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "hello" {
		t.Errorf("payload = %v, want hello", got)
	}
	near(t, "comm end", end, 4)
}

func TestCommLatency(t *testing.T) {
	p := platform.New("g")
	p.AddSite("s", platform.SiteConfig{BackboneBandwidth: 1e9, UplinkBandwidth: 1e9})
	p.AddCluster("s", "c", platform.ClusterConfig{
		Hosts: 2, HostPower: 100,
		HostLinkBandwidth: 1000, HostLinkLatency: 0.25,
		BackboneBandwidth: 1e9, BackboneLatency: 0.5,
		UplinkBandwidth: 1e9,
	})
	e := New(p, nil)
	var end float64
	e.Spawn("sender", "c-1", func(c *Ctx) { c.Send("mb", nil, 1000) })
	e.Spawn("receiver", "c-2", func(c *Ctx) { c.Recv("mb"); end = c.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Latency 0.25+0.5+0.25 = 1, transfer 1000/1000 = 1.
	near(t, "comm end with latency", end, 2)
}

func TestCommFairSharing(t *testing.T) {
	// Two flows from distinct sources into the same destination host link:
	// the 1000 B/s destination link is the shared bottleneck => 500 B/s each.
	e := New(testPlatform(), nil)
	var end1, end2 float64
	e.Spawn("s1", "c-1", func(c *Ctx) { c.Send("m1", nil, 1000) })
	e.Spawn("s2", "c-2", func(c *Ctx) { c.Send("m2", nil, 1000) })
	e.Spawn("r", "c-3", func(c *Ctx) {
		c1 := c.Get("m1")
		c2 := c.Get("m2")
		c1.Wait(c)
		end1 = c.Now()
		c2.Wait(c)
		end2 = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "fair flow 1 end", end1, 2)
	near(t, "fair flow 2 end", end2, 2)
}

func TestCommIndependentFlows(t *testing.T) {
	// Disjoint pairs: both transfer at full speed concurrently.
	e := New(testPlatform(), nil)
	var end1, end2 float64
	e.Spawn("s1", "c-1", func(c *Ctx) { c.Send("m1", nil, 1000) })
	e.Spawn("s2", "c-3", func(c *Ctx) { c.Send("m2", nil, 1000) })
	e.Spawn("r1", "c-2", func(c *Ctx) { c.Recv("m1"); end1 = c.Now() })
	e.Spawn("r2", "c-4", func(c *Ctx) { c.Recv("m2"); end2 = c.Now() })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "independent flow 1", end1, 1)
	near(t, "independent flow 2", end2, 1)
}

func TestSameHostCommInstant(t *testing.T) {
	e := New(testPlatform(), nil)
	var end float64
	e.Spawn("s", "c-1", func(c *Ctx) { c.Send("mb", 42, 1e12) })
	e.Spawn("r", "c-1", func(c *Ctx) {
		if got := c.Recv("mb"); got != 42 {
			t.Errorf("payload = %v", got)
		}
		end = c.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "same-host comm end", end, 0)
}

func TestZeroFlopAndZeroByte(t *testing.T) {
	e := New(testPlatform(), nil)
	var end float64
	e.Spawn("a", "c-1", func(c *Ctx) {
		c.Execute(0)
		c.Send("mb", nil, 0)
		end = c.Now()
	})
	e.Spawn("b", "c-2", func(c *Ctx) { c.Recv("mb") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "zero work end", end, 0)
}

func TestSendBeforeRecvAndRecvBeforeSend(t *testing.T) {
	e := New(testPlatform(), nil)
	order := []string{}
	e.Spawn("s", "c-1", func(c *Ctx) {
		c.Send("m1", "x", 100)
		order = append(order, "sent1")
		c.Sleep(10)
		c.Send("m2", "y", 100)
		order = append(order, "sent2")
	})
	e.Spawn("r", "c-2", func(c *Ctx) {
		c.Recv("m1") // recv posted second
		order = append(order, "got1")
		c.Recv("m2") // recv posted first (sender sleeps)
		order = append(order, "got2")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 {
		t.Fatalf("order = %v", order)
	}
}

func TestWaitAny(t *testing.T) {
	e := New(testPlatform(), nil)
	var first int
	e.Spawn("s1", "c-1", func(c *Ctx) { c.Sleep(5); c.Send("m1", "slow", 100) })
	e.Spawn("s2", "c-2", func(c *Ctx) { c.Send("m2", "fast", 100) })
	e.Spawn("r", "c-3", func(c *Ctx) {
		comms := []*Comm{c.Get("m1"), c.Get("m2")}
		first = c.WaitAny(comms)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if first != 1 {
		t.Errorf("WaitAny = %d, want 1", first)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := New(testPlatform(), nil)
	e.Spawn("stuck", "c-1", func(c *Ctx) { c.Recv("never") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("Run = %v, want deadlock error", err)
	}
}

func TestActorPanicSurfaces(t *testing.T) {
	e := New(testPlatform(), nil)
	e.Spawn("bad", "c-1", func(c *Ctx) { panic("boom") })
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("Run = %v, want panic error", err)
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := New(testPlatform(), nil)
	var childEnd float64
	e.Spawn("parent", "c-1", func(c *Ctx) {
		c.Sleep(1)
		c.Spawn("child", "c-2", func(cc *Ctx) {
			cc.Execute(100) // 1s on 100 flop/s
			childEnd = cc.Now()
		})
		c.Sleep(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "child end", childEnd, 2)
}

func TestSpawnUnknownHostSurfacesError(t *testing.T) {
	e := New(testPlatform(), nil)
	ran := false
	a := e.Spawn("x", "nope", func(c *Ctx) { ran = true })
	if a == nil {
		t.Fatal("Spawn returned nil actor")
	}
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `unknown host "nope"`) {
		t.Errorf("Run = %v, want unknown-host error", err)
	}
	if ran {
		t.Error("body of an actor spawned on an unknown host ran")
	}
}

func TestHostUsageTraced(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	e.Spawn("a", "c-1", func(c *Ctx) { c.Execute(500) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	tl := tr.Timeline("c-1", trace.MetricUsage)
	near(t, "usage during exec", tl.At(2), 100)
	near(t, "usage after exec", tl.At(6), 0)
	// Window covers the run.
	_, end := tr.Window()
	near(t, "trace end", end, 5)
}

func TestLinkTrafficTraced(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	e.Spawn("s", "c-1", func(c *Ctx) { c.Send("mb", nil, 4000) })
	e.Spawn("r", "c-2", func(c *Ctx) { c.Recv("mb") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, link := range []string{"lnk:c-1", "lnk:c-2", "bb:c"} {
		tl := tr.Timeline(link, trace.MetricTraffic)
		near(t, "traffic on "+link+" during", tl.At(2), 1000)
		near(t, "traffic on "+link+" after", tl.At(5), 0)
	}
}

func TestCategoryTracing(t *testing.T) {
	tr := trace.New()
	e := New(testPlatform(), tr)
	e.TraceCategories(true)
	e.Spawn("a", "c-1", func(c *Ctx) {
		c.SetCategory("app1")
		c.Execute(500)
	})
	e.Spawn("b", "c-1", func(c *Ctx) {
		c.SetCategory("app2")
		c.Execute(500)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	near(t, "app1 share", tr.Timeline("c-1", trace.MetricUsage+":app1").At(1), 50)
	near(t, "app2 share", tr.Timeline("c-1", trace.MetricUsage+":app2").At(1), 50)
	near(t, "total", tr.Timeline("c-1", trace.MetricUsage).At(1), 100)
}

func TestDeterministicTraces(t *testing.T) {
	run := func() string {
		tr := trace.New()
		e := New(testPlatform(), tr)
		for i := 0; i < 3; i++ {
			host := []string{"c-1", "c-2", "c-3"}[i]
			mb := []string{"m0", "m1", "m2"}[i]
			e.Spawn("s"+mb, host, func(c *Ctx) {
				c.Execute(250)
				c.Send(mb, nil, 1500)
			})
		}
		e.Spawn("sink", "c-4", func(c *Ctx) {
			comms := []*Comm{c.Get("m0"), c.Get("m1"), c.Get("m2")}
			for _, cm := range comms {
				cm.Wait(c)
			}
			c.Execute(1000)
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := trace.Write(&sb, tr); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if run() != run() {
		t.Error("two identical simulations produced different traces")
	}
}

func TestEngineStats(t *testing.T) {
	e := New(testPlatform(), nil)
	e.Spawn("a", "c-1", func(c *Ctx) { c.Execute(100) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.Events == 0 || e.Recomputes == 0 {
		t.Errorf("stats not collected: events=%d recomputes=%d", e.Events, e.Recomputes)
	}
}
