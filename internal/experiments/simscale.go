package experiments

import (
	"fmt"
	"strconv"
	"time"

	"viva/internal/obs"
	"viva/internal/platform"
	"viva/internal/sim"
)

// RingAllreduceRounds is the number of allreduce rounds the scaling
// workload executes (each round: one intra-rack ring exchange plus a
// reduction step per host, and one cross-rack leader exchange per rack).
const RingAllreduceRounds = 2

// NewRingAllreduce sets up a ring-allreduce-style workload over a
// SyntheticFabric platform of the given host count and returns the engine
// ready to Run, so callers can time the engine apart from the set-up
// (e.Events is the processed event count after Run). Every host passes a
// chunk around its rack's ring — Put the chunk to the successor, receive
// from the predecessor, then reduce locally — and the rack leaders
// additionally circulate a chunk around their pod's leader ring, pushing
// traffic through the rack uplinks and pod backbone. Tracing is off: this
// measures the engine hot loop itself.
func NewRingAllreduce(hosts, rounds int) *sim.Engine {
	p := platform.SyntheticFabric(hosts)
	e := sim.New(p, nil)
	const (
		chunk = 8e6 // 8 MB per ring hop
		flops = 4e8 // 0.05 s of local reduction on the 8 GFlops hosts
	)
	for pod := 0; ; pod++ {
		rack0 := platform.FabricRackName(pod, 0)
		if len(p.HostsOfCluster(rack0)) == 0 {
			break
		}
		// Count the pod's racks first: the leader ring needs its size.
		podRacks := 0
		for rack := 0; rack < platform.FabricPodRacks; rack++ {
			if len(p.HostsOfCluster(platform.FabricRackName(pod, rack))) == 0 {
				break
			}
			podRacks++
		}
		for rack := 0; rack < podRacks; rack++ {
			cl := platform.FabricRackName(pod, rack)
			rackHosts := p.HostsOfCluster(cl)
			n := len(rackHosts)
			for j, host := range rackHosts {
				self := "ring:" + cl + ":" + strconv.Itoa(j)
				next := "ring:" + cl + ":" + strconv.Itoa((j+1)%n)
				leader := j == 0 && podRacks > 1
				xSelf := "xring:" + strconv.Itoa(pod) + ":" + strconv.Itoa(rack)
				xNext := "xring:" + strconv.Itoa(pod) + ":" + strconv.Itoa((rack+1)%podRacks)
				e.Spawn("a:"+host, host, func(c *sim.Ctx) {
					for r := 0; r < rounds; r++ {
						cm := c.Put(next, nil, chunk)
						c.Recv(self)
						cm.Wait(c)
						c.Execute(flops)
						if leader {
							xc := c.Put(xNext, nil, chunk)
							c.Recv(xSelf)
							xc.Wait(c)
						}
					}
				})
			}
		}
	}
	return e
}

// SimScale measures the discrete-event engine's throughput against
// platform size: events per wall-clock second of Engine.Run for the
// ring-allreduce workload on synthetic fabrics of 1k, 10k and 100k hosts,
// with the set-up (platform build and actor spawns) timed apart. The
// per-host event count is constant by construction, so events/sec is the
// engine-throughput figure. The checks assert on deterministic counts:
// events per host, and flows settled per event — the solver's work per
// event, which grows if a recompute's component grows with the platform.
func SimScale(opts Options) (*Result, error) {
	res := &Result{ID: "simscale", Title: "Engine scaling: events/sec vs host count"}

	sizes := []int{1000, 10000, 100000}
	if opts.Quick {
		sizes = []int{1000, 10000}
	}

	table := Table{
		Title:  "ring-allreduce on SyntheticFabric",
		Header: []string{"hosts", "events", "events/host", "flows settled/event", "setup s", "run s", "events/sec"},
	}
	perHost := make([]float64, len(sizes))
	settledPerEvent := make([]float64, len(sizes))
	evRate := make([]float64, len(sizes))
	for i, n := range sizes {
		t0 := time.Now()
		e := NewRingAllreduce(n, RingAllreduceRounds)
		setup := time.Since(t0).Seconds()
		settled0 := flowsSettled.Value()
		t1 := time.Now()
		if err := e.Run(); err != nil {
			return nil, fmt.Errorf("simscale hosts=%d: %w", n, err)
		}
		run := time.Since(t1).Seconds()
		perHost[i] = float64(e.Events) / float64(n)
		settledPerEvent[i] = float64(flowsSettled.Value()-settled0) / float64(e.Events)
		evRate[i] = float64(e.Events) / run
		table.Rows = append(table.Rows, []string{
			fmt.Sprintf("%d", n), fmt.Sprintf("%d", e.Events), f1(perHost[i]),
			fmt.Sprintf("%.2f", settledPerEvent[i]), fmt.Sprintf("%.2f", setup),
			fmt.Sprintf("%.2f", run), fmt.Sprintf("%.0f", evRate[i]),
		})
	}
	res.Tables = append(res.Tables, table)

	last := len(sizes) - 1
	res.Checks = append(res.Checks,
		check("per-host event count is size-independent",
			perHost[last] < perHost[0]*1.5 && perHost[0] < perHost[last]*1.5,
			"%.1f events/host at %d vs %.1f at %d hosts",
			perHost[0], sizes[0], perHost[last], sizes[last]),
		check("solver work per event survives the size sweep",
			settledPerEvent[last] < settledPerEvent[0]*1.5,
			"%.2f flows settled/event at %d hosts vs %.2f at %d",
			settledPerEvent[last], sizes[last], settledPerEvent[0], sizes[0]),
	)
	res.Notes = append(res.Notes,
		fmt.Sprintf("largest run: %s hosts at %.0f events/sec of Engine.Run (set-up %s s apart)",
			table.Rows[last][0], evRate[last], table.Rows[last][4]))
	return res, nil
}

// flowsSettled is the engine's viva_sim_flows_settled_total counter; the
// registry hands back the one the sim package registered.
var flowsSettled = obs.Default.Counter("viva_sim_flows_settled_total", "")
