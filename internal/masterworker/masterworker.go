// Package masterworker implements the grid workload of the paper's second
// case study (Section 5.2): master-worker applications distributing
// independent tasks over a grid, with the bandwidth-centric scheduling
// strategy of Beaumont et al. — whenever several workers request work, the
// one with the largest effective bandwidth to the master is served first —
// and a FIFO baseline for contrast. Every worker keeps a prefetch buffer
// of tasks (three in the paper) to hide transfer latency.
package masterworker

import (
	"fmt"
	"sort"

	"viva/internal/platform"
	"viva/internal/sim"
)

// Strategy selects how the master orders pending worker requests.
type Strategy int

const (
	// BandwidthCentric serves the requesting worker with the highest
	// estimated effective bandwidth first (the paper's strategy [4]).
	BandwidthCentric Strategy = iota
	// FIFO serves requests in arrival order — the strategy the paper
	// contrasts against, which spreads work uniformly (and inefficiently).
	FIFO
)

// String names the strategy.
func (s Strategy) String() string {
	if s == FIFO {
		return "fifo"
	}
	return "bandwidth-centric"
}

// App describes one master-worker application.
type App struct {
	Name        string   // also the trace category
	MasterHost  string   // where the master (data server) runs
	Workers     []string // hosts running one worker each
	TaskCount   int      // total independent tasks to distribute
	TaskFlops   float64  // computation per task
	TaskBytes   float64  // input data shipped per task
	ResultBytes float64  // result shipped back per task (small)
	Prefetch    int      // per-worker in-flight task target (paper: 3)
	SendWindow  int      // max concurrent task transfers at the master
	Strategy    Strategy
	// MeasuredBandwidth switches the effective-bandwidth evaluation from
	// the static route estimate (Beaumont et al.'s bandwidth-centric
	// ranking, the default) to the throughput measured on each completed
	// transfer. Measurements fold contention back into the priorities,
	// which tends to equalize them — useful as an ablation of the
	// locality phenomena of Section 5.2.
	MeasuredBandwidth bool
	// FaultTolerant arms the failure protocol for running under a fault
	// schedule: workers exit cleanly when their host dies, and the
	// master detects dead workers (no progress for DetectTimeout, then a
	// liveness probe), re-dispatches their outstanding tasks to the
	// survivors, and deduplicates late results, so the application
	// completes as long as one worker remains.
	FaultTolerant bool
	// DetectTimeout is how long the fault-tolerant master waits without
	// progress before probing worker liveness (default 10 simulated
	// seconds).
	DetectTimeout float64
}

// Stats reports one application's execution, filled in by the master when
// it finishes.
type Stats struct {
	App       string
	Makespan  float64 // time the last result arrived
	TasksDone int
	PerWorker []int          // tasks completed per worker index
	ByHost    map[string]int // tasks completed per host name

	// Fault-tolerant runs only.
	Requeued      int   // tasks re-dispatched after a worker death
	FailedWorkers []int // worker indices declared dead, ascending
}

func (a *App) validate() error {
	if a.Name == "" {
		return fmt.Errorf("masterworker: app needs a name")
	}
	if len(a.Workers) == 0 {
		return fmt.Errorf("masterworker: app %q has no workers", a.Name)
	}
	if a.TaskCount <= 0 {
		return fmt.Errorf("masterworker: app %q has no tasks", a.Name)
	}
	if a.TaskBytes < 0 || a.TaskFlops < 0 || a.ResultBytes < 0 {
		return fmt.Errorf("masterworker: app %q has negative task parameters", a.Name)
	}
	if a.Prefetch <= 0 {
		a.Prefetch = 3
	}
	if a.SendWindow <= 0 {
		a.SendWindow = 8
	}
	if a.DetectTimeout <= 0 {
		a.DetectTimeout = 10
	}
	return nil
}

func (a *App) workerMbox(i int) string { return fmt.Sprintf("mw:%s:w%d", a.Name, i) }
func (a *App) masterMbox() string      { return fmt.Sprintf("mw:%s:m", a.Name) }

// taskMsg is a unit of work; a nil payload is the stop sentinel.
type taskMsg struct{ seq int }

// resultMsg is a worker's completion notice, doubling as its next
// request. seq identifies the completed task so a fault-tolerant master
// can deduplicate results of re-dispatched work.
type resultMsg struct {
	worker int
	seq    int
}

// Deploy spawns the application's master and workers on the engine. The
// returned Stats is filled when the master terminates (after e.Run()).
func Deploy(e *sim.Engine, app *App) (*Stats, error) {
	if err := app.validate(); err != nil {
		return nil, err
	}
	if e.Platform().Host(app.MasterHost) == nil {
		return nil, fmt.Errorf("masterworker: app %q master host %q unknown", app.Name, app.MasterHost)
	}
	for _, w := range app.Workers {
		if e.Platform().Host(w) == nil {
			return nil, fmt.Errorf("masterworker: app %q worker host %q unknown", app.Name, w)
		}
	}
	stats := &Stats{App: app.Name, PerWorker: make([]int, len(app.Workers)), ByHost: make(map[string]int)}
	for i := range app.Workers {
		i := i
		e.Spawn(fmt.Sprintf("%s.w%d", app.Name, i), app.Workers[i], func(c *sim.Ctx) {
			if app.FaultTolerant {
				runWorkerFT(c, app, i)
			} else {
				runWorker(c, app, i)
			}
		})
	}
	e.Spawn(app.Name+".master", app.MasterHost, func(c *sim.Ctx) {
		if app.FaultTolerant {
			runMasterFT(c, e.Platform(), app, stats)
		} else {
			runMaster(c, e.Platform(), app, stats)
		}
	})
	return stats, nil
}

// runWorker keeps Prefetch receives posted so task data streams in while
// it computes, mirroring the paper's "prefetch buffer of three tasks that
// it tries to maintain full to minimize its idleness".
func runWorker(c *sim.Ctx, app *App, idx int) {
	c.SetCategory(app.Name)
	mbox := app.workerMbox(idx)
	pending := make([]*sim.Comm, 0, app.Prefetch)
	for len(pending) < app.Prefetch {
		pending = append(pending, c.Get(mbox))
	}
	for {
		payload := pending[0].Wait(c)
		pending = append(pending[1:], c.Get(mbox))
		if payload == nil {
			return // stop sentinel
		}
		c.Execute(app.TaskFlops)
		// The result doubles as the next work request; fire and forget.
		c.Put(app.masterMbox(), resultMsg{worker: idx}, app.ResultBytes)
	}
}

// request is one queued worker demand at the master.
type request struct {
	worker  int
	arrival int // FIFO sequence
}

// runMaster distributes TaskCount tasks, serving pending requests in
// strategy order through a bounded window of concurrent transfers, then
// collects the remaining results and stops the workers.
func runMaster(c *sim.Ctx, plat *platform.Platform, app *App, stats *Stats) {
	c.SetCategory(app.Name)
	effBW := initialBandwidth(plat, app)

	// Initial demand: every worker asks for Prefetch tasks, in prefetch
	// rounds so FIFO interleaves workers instead of batching per worker.
	var queue []request
	arrival := 0
	for round := 0; round < app.Prefetch; round++ {
		for w := range app.Workers {
			queue = append(queue, request{worker: w, arrival: arrival})
			arrival++
		}
	}

	pick := func() request {
		best := 0
		if app.Strategy == BandwidthCentric {
			for i := 1; i < len(queue); i++ {
				q, b := queue[i], queue[best]
				if effBW[q.worker] > effBW[b.worker] ||
					(effBW[q.worker] == effBW[b.worker] && q.arrival < b.arrival) {
					best = i
				}
			}
		}
		r := queue[best]
		queue = append(queue[:best], queue[best+1:]...)
		return r
	}

	type outSend struct {
		comm   *sim.Comm
		worker int
		start  float64
	}
	var sends []outSend
	sent, done := 0, 0
	resultGet := c.Get(app.masterMbox())

	for done < app.TaskCount {
		// Fill the send window strategy-first.
		for len(sends) < app.SendWindow && sent < app.TaskCount && len(queue) > 0 {
			r := pick()
			comm := c.Put(app.workerMbox(r.worker), taskMsg{seq: sent}, app.TaskBytes)
			sends = append(sends, outSend{comm: comm, worker: r.worker, start: c.Now()})
			sent++
		}
		// Wait for a transfer to finish or a result to arrive.
		waits := make([]*sim.Comm, 0, len(sends)+1)
		waits = append(waits, resultGet)
		for _, s := range sends {
			waits = append(waits, s.comm)
		}
		idx := c.WaitAny(waits)
		if idx == 0 {
			res := resultGet.Wait(c).(resultMsg)
			resultGet = c.Get(app.masterMbox())
			done++
			stats.PerWorker[res.worker]++
			if sent < app.TaskCount {
				queue = append(queue, request{worker: res.worker, arrival: arrival})
				arrival++
			}
			continue
		}
		s := sends[idx-1]
		sends = append(sends[:idx-1], sends[idx:]...)
		// Optionally refresh the worker's effective bandwidth from the
		// measured transfer (skip degenerate zero-duration transfers).
		if d := c.Now() - s.start; app.MeasuredBandwidth && d > 0 && app.TaskBytes > 0 {
			effBW[s.worker] = app.TaskBytes / d
		}
	}

	stats.Makespan = c.Now()
	stats.TasksDone = done
	for i, n := range stats.PerWorker {
		if n > 0 {
			stats.ByHost[app.Workers[i]] += n
		}
	}
	// Stop the workers; they each hold Prefetch posted receives, so a
	// single sentinel per worker unblocks and terminates them. Sentinels
	// are zero-byte control messages: they deliver instantly without
	// occupying the network (sending 2170 of them as real flows would
	// needlessly create one huge shared bottleneck at the master).
	stops := make([]*sim.Comm, len(app.Workers))
	for i := range app.Workers {
		stops[i] = c.Put(app.workerMbox(i), nil, 0)
	}
	for _, s := range stops {
		s.Wait(c)
	}
}

// SiteShares aggregates a Stats' per-host task counts by site, returning
// sorted site names and each site's share of all completed tasks.
func SiteShares(stats *Stats, plat *platform.Platform) ([]string, []float64) {
	bySite := make(map[string]int)
	total := 0
	for host, n := range stats.ByHost {
		h := plat.Host(host)
		if h == nil {
			continue
		}
		bySite[h.Site] += n
		total += n
	}
	sites := make([]string, 0, len(bySite))
	for s := range bySite {
		sites = append(sites, s)
	}
	sort.Strings(sites)
	shares := make([]float64, len(sites))
	for i, s := range sites {
		if total > 0 {
			shares[i] = float64(bySite[s]) / float64(total)
		}
	}
	return sites, shares
}
