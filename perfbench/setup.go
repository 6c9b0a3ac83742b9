package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"viva/internal/masterworker"
	"viva/internal/obs"
	"viva/internal/platform"
	"viva/internal/sim"
	"viva/internal/trace"
)

// scale fixes the input size of every workload. The full scale is the
// paper's Grid'5000 scenario; the tiny scale is the two-cluster demo the
// smoke test runs in seconds.
type scale struct {
	name      string
	platform  func() *platform.Platform
	clusters  [2]string // where the seed places the two masters
	cpuTasks  int       // tasks of the CPU-bound application
	netTasks  int       // tasks of the network-bound application
	liveRate  float64   // offered ops per wall second on live-grid5000
	liveLevel int       // hierarchy depth the live view is aggregated to
}

var scales = map[string]scale{
	"full": {
		name: "full", platform: platform.Grid5000, clusters: [2]string{"adonis", "graphene"},
		cpuTasks: 4000, netTasks: 1600, liveRate: 20000, liveLevel: 2,
	},
	"tiny": {
		name: "tiny", platform: platform.TwoClusters, clusters: [2]string{"adonis", "griffon"},
		cpuTasks: 200, netTasks: 80, liveRate: 2000, liveLevel: 1,
	},
}

// scenario is one seeded input: the simulated trace and where it lives
// on disk in the native text format.
type scenario struct {
	tr    *trace.Trace
	path  string
	bytes int64
	simS  float64 // wall seconds of the simulator run
}

// simulate runs the gridmw scenario — a CPU-bound and a network-bound
// master-worker application sharing every host — with both masters
// picked by the seed, and writes the trace to the run's directory. It is
// the set-up all four workloads share; a traced set-up (t non-nil) also
// records the simulator's per-layer metrics.
func (r *runner) simulate(t *tracer) (*scenario, error) {
	sc := r.sc
	p := sc.platform()
	rng := rand.New(rand.NewSource(r.seed))
	var s scenario
	var masters [2]string
	for i, c := range sc.clusters {
		hosts := p.HostsOfCluster(c)
		if len(hosts) == 0 {
			return nil, fmt.Errorf("platform has no cluster %q", c)
		}
		masters[i] = hosts[rng.Intn(len(hosts))]
	}
	var workers []string
	for _, h := range p.Hosts() {
		workers = append(workers, h.Name)
	}
	s.tr = trace.New()
	e := sim.New(p, s.tr)
	e.TraceCategories(true)
	apps := []*masterworker.App{
		{
			Name: "cpu", MasterHost: masters[0], Workers: workers, TaskCount: sc.cpuTasks,
			TaskFlops: 40 * platform.GFlops, TaskBytes: 0.25 * platform.MB,
			ResultBytes: 10 * platform.KB, Strategy: masterworker.BandwidthCentric,
		},
		{
			Name: "net", MasterHost: masters[1], Workers: workers, TaskCount: sc.netTasks,
			TaskFlops: 64 * platform.GFlops, TaskBytes: 2 * platform.MB,
			ResultBytes: 10 * platform.KB, Strategy: masterworker.BandwidthCentric,
		},
	}
	for _, app := range apps {
		if _, err := masterworker.Deploy(e, app); err != nil {
			return nil, fmt.Errorf("deploy %s: %w", app.Name, err)
		}
	}
	ev0 := obsValue("viva_sim_events_total")
	sp := t.start("sim.Run", 0)
	t0 := time.Now()
	if err := e.Run(); err != nil {
		return nil, fmt.Errorf("simulate: %w", err)
	}
	s.simS = time.Since(t0).Seconds()
	t.end(sp)
	if t != nil {
		r.layer["sim.run_s"] = s.simS
		r.layer["sim.events_per_s"] = (obsValue("viva_sim_events_total") - ev0) / s.simS
	}

	s.path = filepath.Join(r.dir, "grid.viva")
	sp = t.start("trace.Write", 0)
	err := writeTrace(s.path, s.tr)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	s.bytes = fi.Size()
	return &s, nil
}

func writeTrace(path string, tr *trace.Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := trace.Write(w, tr); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// obsValue reads one of the program's own obs counters or gauges by
// name (0 when the series was never registered).
func obsValue(name string) float64 {
	for _, m := range obs.Default.Snapshot() {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}
