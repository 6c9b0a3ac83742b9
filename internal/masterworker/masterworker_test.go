package masterworker

import (
	"testing"

	"viva/internal/fault"
	"viva/internal/platform"
	"viva/internal/sim"
	"viva/internal/trace"
)

// twoSites: master site s1 (4 hosts across c1), remote site s2 (4 hosts),
// with a narrow site uplink so remote workers have lower effective
// bandwidth.
func twoSites() *platform.Platform {
	p := platform.New("g")
	p.AddSite("s1", platform.SiteConfig{BackboneBandwidth: 10 * platform.Gbps, UplinkBandwidth: 0.5 * platform.Gbps, UplinkLatency: 5e-3})
	p.AddSite("s2", platform.SiteConfig{BackboneBandwidth: 10 * platform.Gbps, UplinkBandwidth: 0.5 * platform.Gbps, UplinkLatency: 5e-3})
	cc := platform.ClusterConfig{
		Hosts: 4, HostPower: 1 * platform.GFlops,
		HostLinkBandwidth: 1 * platform.Gbps, BackboneBandwidth: 10 * platform.Gbps,
		UplinkBandwidth: 10 * platform.Gbps,
	}
	p.AddCluster("s1", "c1", cc)
	p.AddCluster("s2", "c2", cc)
	return p
}

func allHosts(p *platform.Platform) []string {
	var out []string
	for _, h := range p.Hosts() {
		out = append(out, h.Name)
	}
	return out
}

func baseApp(p *platform.Platform) *App {
	return &App{
		Name:        "app",
		MasterHost:  "c1-1",
		Workers:     allHosts(p),
		TaskCount:   40,
		TaskFlops:   0.5 * platform.GFlops,
		TaskBytes:   1 * platform.MB,
		ResultBytes: 1 * platform.KB,
		Prefetch:    3,
		SendWindow:  4,
		Strategy:    BandwidthCentric,
	}
}

func TestAllTasksComplete(t *testing.T) {
	p := twoSites()
	e := sim.New(p, nil)
	app := baseApp(p)
	stats, err := Deploy(e, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.TasksDone != app.TaskCount {
		t.Fatalf("TasksDone = %d, want %d", stats.TasksDone, app.TaskCount)
	}
	sum := 0
	for _, n := range stats.PerWorker {
		sum += n
	}
	if sum != app.TaskCount {
		t.Errorf("PerWorker sum = %d, want %d", sum, app.TaskCount)
	}
	if stats.Makespan <= 0 {
		t.Errorf("Makespan = %g", stats.Makespan)
	}
	total := 0
	for _, n := range stats.ByHost {
		total += n
	}
	if total != app.TaskCount {
		t.Errorf("ByHost sum = %d", total)
	}
}

func TestBandwidthCentricPrefersLocalWorkers(t *testing.T) {
	// Few tasks, heavy data: with bandwidth-centric scheduling the local
	// site's workers (higher effective bandwidth) should receive the bulk.
	p := twoSites()
	e := sim.New(p, nil)
	app := baseApp(p)
	app.TaskCount = 16
	app.TaskFlops = 2 * platform.GFlops
	app.TaskBytes = 20 * platform.MB
	stats, err := Deploy(e, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	sites, shares := SiteShares(stats, p)
	local := 0.0
	for i, s := range sites {
		if s == "s1" {
			local = shares[i]
		}
	}
	if local <= 0.5 {
		t.Errorf("local site share = %g, want > 0.5 (shares: %v %v)", local, sites, shares)
	}
}

func TestFIFOSpreadsUniformly(t *testing.T) {
	// FIFO ignores bandwidth: with enough tasks every worker gets some.
	p := twoSites()
	e := sim.New(p, nil)
	app := baseApp(p)
	app.Strategy = FIFO
	stats, err := Deploy(e, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, n := range stats.PerWorker {
		if n == 0 {
			t.Errorf("FIFO left worker %d idle", i)
		}
	}
}

func TestFIFOLessLocalThanBandwidthCentric(t *testing.T) {
	run := func(s Strategy) float64 {
		p := twoSites()
		e := sim.New(p, nil)
		app := baseApp(p)
		app.Strategy = s
		app.TaskCount = 24
		app.TaskBytes = 10 * platform.MB
		stats, err := Deploy(e, app)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		sites, shares := SiteShares(stats, p)
		for i, site := range sites {
			if site == "s1" {
				return shares[i]
			}
		}
		return 0
	}
	bc := run(BandwidthCentric)
	fifo := run(FIFO)
	if bc <= fifo {
		t.Errorf("bandwidth-centric local share %g not above FIFO %g", bc, fifo)
	}
}

func TestTwoCompetingApps(t *testing.T) {
	p := twoSites()
	tr := trace.New()
	e := sim.New(p, tr)
	e.TraceCategories(true)
	cpu := baseApp(p)
	cpu.Name = "cpu"
	cpu.MasterHost = "c1-1"
	cpu.TaskCount = 20
	cpu.TaskFlops = 1 * platform.GFlops
	cpu.TaskBytes = 0.5 * platform.MB
	net := baseApp(p)
	net.Name = "net"
	net.MasterHost = "c2-1"
	net.TaskCount = 20
	net.TaskFlops = 0.2 * platform.GFlops
	net.TaskBytes = 5 * platform.MB
	s1, err := Deploy(e, cpu)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Deploy(e, net)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if s1.TasksDone != 20 || s2.TasksDone != 20 {
		t.Fatalf("tasks done: %d, %d", s1.TasksDone, s2.TasksDone)
	}
	// Both categories show up in the traces of some host.
	foundCPU, foundNet := false, false
	for _, h := range p.Hosts() {
		if tr.HasMetric(h.Name, trace.MetricUsage+":cpu") {
			foundCPU = true
		}
		if tr.HasMetric(h.Name, trace.MetricUsage+":net") {
			foundNet = true
		}
	}
	if !foundCPU || !foundNet {
		t.Errorf("per-app usage not traced: cpu=%v net=%v", foundCPU, foundNet)
	}
	// The CPU-bound app must consume more compute overall (phenomenon 1 of
	// Section 5.2): integrate per-category usage across hosts.
	_, end := tr.Window()
	cpuWork, netWork := 0.0, 0.0
	for _, h := range p.Hosts() {
		cpuWork += tr.Timeline(h.Name, trace.MetricUsage+":cpu").Integrate(0, end)
		netWork += tr.Timeline(h.Name, trace.MetricUsage+":net").Integrate(0, end)
	}
	if cpuWork <= netWork {
		t.Errorf("cpu-bound work %g not above net-bound %g", cpuWork, netWork)
	}
}

func TestDeployValidation(t *testing.T) {
	p := twoSites()
	cases := []*App{
		{Name: "", MasterHost: "c1-1", Workers: []string{"c1-2"}, TaskCount: 1},
		{Name: "x", MasterHost: "c1-1", Workers: nil, TaskCount: 1},
		{Name: "x", MasterHost: "c1-1", Workers: []string{"c1-2"}, TaskCount: 0},
		{Name: "x", MasterHost: "nope", Workers: []string{"c1-2"}, TaskCount: 1},
		{Name: "x", MasterHost: "c1-1", Workers: []string{"nope"}, TaskCount: 1},
		{Name: "x", MasterHost: "c1-1", Workers: []string{"c1-2"}, TaskCount: 1, TaskBytes: -1},
	}
	for i, app := range cases {
		e := sim.New(p, nil)
		if _, err := Deploy(e, app); err == nil {
			t.Errorf("case %d: invalid app accepted", i)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := twoSites()
	e := sim.New(p, nil)
	app := &App{
		Name: "d", MasterHost: "c1-1", Workers: []string{"c1-2", "c1-3"},
		TaskCount: 4, TaskFlops: 1e6, TaskBytes: 1e3,
	}
	if _, err := Deploy(e, app); err != nil {
		t.Fatal(err)
	}
	if app.Prefetch != 3 || app.SendWindow != 8 {
		t.Errorf("defaults not applied: prefetch=%d window=%d", app.Prefetch, app.SendWindow)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCommRatio(t *testing.T) {
	a := &App{TaskFlops: 10, TaskBytes: 5}
	if got := a.CommRatio(); got != 0.5 {
		t.Errorf("CommRatio = %g, want 0.5", got)
	}
	b := &App{TaskFlops: 0, TaskBytes: 5}
	if got := b.CommRatio(); got != 0 {
		t.Errorf("zero-flop CommRatio = %g, want 0", got)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() []int {
		p := twoSites()
		e := sim.New(p, nil)
		app := baseApp(p)
		stats, err := Deploy(e, app)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return stats.PerWorker
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic distribution: %v vs %v", a, b)
		}
	}
}

// A worker host crashing mid-run must not lose tasks: the fault-tolerant
// master re-dispatches the dead worker's work and every task completes
// on the survivors.
func TestFaultTolerantRedispatch(t *testing.T) {
	p := twoSites()
	e := sim.New(p, nil)
	app := baseApp(p)
	app.FaultTolerant = true
	app.DetectTimeout = 2
	// Kill one worker early, while it holds prefetched tasks.
	sched := fault.MustSchedule(fault.Event{Time: 0.3, Kind: fault.HostDown, Target: "c1-2"})
	if err := e.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	stats, err := Deploy(e, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.TasksDone != app.TaskCount {
		t.Fatalf("TasksDone = %d, want %d", stats.TasksDone, app.TaskCount)
	}
	deadIdx := -1
	for i, w := range app.Workers {
		if w == "c1-2" {
			deadIdx = i
		}
	}
	if len(stats.FailedWorkers) != 1 || stats.FailedWorkers[0] != deadIdx {
		t.Errorf("FailedWorkers = %v, want [%d]", stats.FailedWorkers, deadIdx)
	}
	if stats.Requeued == 0 {
		t.Error("no tasks requeued despite a worker death")
	}
	total := 0
	for _, n := range stats.PerWorker {
		total += n
	}
	if total != app.TaskCount {
		t.Errorf("PerWorker sums to %d, want %d", total, app.TaskCount)
	}
}

// With every worker dead the fault-tolerant master gives up with partial
// stats instead of hanging the simulation.
func TestFaultTolerantAllWorkersDead(t *testing.T) {
	p := twoSites()
	e := sim.New(p, nil)
	app := baseApp(p)
	app.FaultTolerant = true
	app.DetectTimeout = 1
	app.Workers = []string{"c1-2", "c1-3"}
	sched := fault.MustSchedule(
		fault.Event{Time: 0.1, Kind: fault.HostDown, Target: "c1-2"},
		fault.Event{Time: 0.1, Kind: fault.HostDown, Target: "c1-3"},
	)
	if err := e.InjectFaults(sched); err != nil {
		t.Fatal(err)
	}
	stats, err := Deploy(e, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.TasksDone >= app.TaskCount {
		t.Errorf("TasksDone = %d with every worker dead", stats.TasksDone)
	}
	if len(stats.FailedWorkers) != 2 {
		t.Errorf("FailedWorkers = %v, want both workers", stats.FailedWorkers)
	}
}

// The fault-tolerant protocol under a healthy platform behaves like the
// plain one: all tasks complete, nothing requeued, nobody declared dead.
func TestFaultTolerantHealthyRun(t *testing.T) {
	p := twoSites()
	e := sim.New(p, nil)
	app := baseApp(p)
	app.FaultTolerant = true
	stats, err := Deploy(e, app)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if stats.TasksDone != app.TaskCount || stats.Requeued != 0 || len(stats.FailedWorkers) != 0 {
		t.Errorf("healthy FT run: done=%d requeued=%d failed=%v",
			stats.TasksDone, stats.Requeued, stats.FailedWorkers)
	}
}

// CommRatio returns the application's communication-to-computation ratio
// expressed in bytes per flop, the knob the paper turns between its two
// competing applications. Only tests ask, so it lives here.
func (a *App) CommRatio() float64 {
	if a.TaskFlops == 0 {
		return 0
	}
	return a.TaskBytes / a.TaskFlops
}
