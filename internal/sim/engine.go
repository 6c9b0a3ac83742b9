package sim

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"

	"viva/internal/fault"
	"viva/internal/obs"
	"viva/internal/platform"
	"viva/internal/trace"
)

// Self-observation: the simulator reports its own throughput. All are
// single atomic adds on paths whose real work is orders of magnitude
// larger, so the healthy-path benchmarks stay within noise.
var (
	obsEvents = obs.Default.Counter("viva_sim_events_total",
		"Simulation events processed (activity completions, delays, faults).")
	obsRecomputes = obs.Default.Counter("viva_sim_recomputes_total",
		"Max-min sharing re-solves over dirty components.")
	obsFlowsSettled = obs.Default.Counter("viva_sim_flows_settled_total",
		"Flow progress settlements before a rate change.")
	obsActivitiesDone = obs.Default.Counter("viva_sim_activities_completed_total",
		"Activities (executions, communications, sleeps) completed.")
	obsActorsSpawned = obs.Default.Counter("viva_sim_actors_spawned_total",
		"Actors spawned onto hosts.")
	obsFaultsApplied = obs.Default.Counter("viva_sim_faults_applied_total",
		"Fault-schedule events applied to resources.")
	obsQueueDepth = obs.Default.Gauge("viva_sim_event_queue_depth",
		"Live entries in the engine's indexed event queue.")
	obsActivityPoolFree = obs.Default.Gauge("viva_sim_activity_pool_free",
		"Recycled activity objects parked on the engine's free list.")
)

// routeInfo caches a resolved platform route: the link resources crossed
// and the summed base latency. Routes are static, so each (src, dst) pair
// is resolved at most once per engine.
type routeInfo struct {
	links   []*resource
	latency float64
}

// Engine owns simulated time, the resource pool, the actors and the event
// queue. Create one with New, spawn actors, then call Run.
//
// The hot loop — recompute dirty components, pop the next event, fire it,
// drain woken actors — is engineered to allocate nothing in steady state:
// component scans use epoch stamps and persistent scratch buffers instead
// of per-call maps, the event queue is an indexed heap updated in place,
// and activities plus mailbox bookkeeping are recycled through free lists.
type Engine struct {
	plat *platform.Platform
	tr   *trace.Trace

	now    float64
	nextID int64

	actors []*Actor

	// runnable is a ring: wake appends, drainRunnable consumes through
	// runHead and resets both when drained, so the backing array is reused
	// instead of being re-allocated (and pinned) by front-reslicing.
	runnable []*Actor
	runHead  int

	hosts map[string]*resource // host name -> compute resource
	links map[string]*resource // link name -> network resource
	res   []*resource          // every resource, name-ordered (order fields index it)

	mailboxes map[string]*mailbox
	routes    map[HostPair]routeInfo

	// dirtyList collects resources touched since the last recompute;
	// resource.inDirty dedupes. Replaces a per-recompute map rebuild.
	dirtyList []*resource

	// queue is an indexed binary min-heap ordered by (time, activity id).
	// Each live activity appears at most once (activity.heapIdx), so
	// reschedules update in place instead of stacking stale entries.
	queue []eventEntry

	// Recompute scan state: scanEpoch stamps visited resources/flows
	// (activity.scanned / resource.scanned), the scan* slices are the
	// persistent BFS scratch.
	scanEpoch uint64
	scanStack []*resource
	scanRes   []*resource
	scanFlows []*activity

	// Free lists. Completed activities and consumed mailbox halves are
	// recycled; see releaseActivity for the ownership rules.
	actPool []*activity
	psPool  []*pendingSend
	prPool  []*pendingRecv

	// traceResource scratch, reused across calls.
	catScratch map[string]float64
	catKeys    []string

	faultScratch []*activity // takeDown's snapshot of the victim flows

	traceCats   bool
	traceStates bool

	commBytes map[HostPair]float64 // delivered bytes per (src, dst) hosts

	// Fault injection (see InjectFaults). faults is the merged schedule,
	// faultIdx the next event to apply, extraLatency the standing
	// per-link latency spikes. All nil/zero unless faults are armed, so
	// the healthy path pays only one integer compare per loop iteration.
	faults       []fault.Event
	faultIdx     int
	extraLatency map[string]float64

	// err is the first structural failure (unknown spawn host, missing
	// route); Run reports it instead of continuing on a broken setup.
	err error

	// fullRecompute disables the lazy component-based rate invalidation:
	// every activity change re-solves the whole platform. Only useful to
	// measure how much the lazy scheme buys (see the ablation benchmark).
	fullRecompute bool

	// Stats, exposed for benchmarks and tests.
	Events     int
	Recomputes int
}

// New creates an engine over the platform. If tr is non-nil the platform
// is declared into it and resource usage is traced while running.
func New(plat *platform.Platform, tr *trace.Trace) *Engine {
	e := &Engine{
		plat:      plat,
		tr:        tr,
		hosts:     make(map[string]*resource),
		links:     make(map[string]*resource),
		mailboxes: make(map[string]*mailbox),
		routes:    make(map[HostPair]routeInfo),
		commBytes: make(map[HostPair]float64),
	}
	if tr != nil {
		plat.DeclareInto(tr)
	}
	for _, h := range plat.Hosts() {
		r := &resource{
			name:        h.Name,
			capacity:    h.Power,
			nominal:     h.Power,
			degrade:     1,
			isHost:      true,
			traceUsage:  tr != nil,
			usageMetric: trace.MetricUsage,
			lastByCat:   make(map[string]float64),
		}
		e.hosts[h.Name] = r
		e.res = append(e.res, r)
	}
	for _, l := range plat.Links() {
		r := &resource{
			name:        l.Name,
			capacity:    l.Bandwidth,
			nominal:     l.Bandwidth,
			degrade:     1,
			traceUsage:  tr != nil,
			usageMetric: trace.MetricTraffic,
			lastByCat:   make(map[string]float64),
		}
		e.links[l.Name] = r
		e.res = append(e.res, r)
	}
	// Rank resources by name once: the recompute and the solver order by
	// this integer instead of re-comparing strings on every hot-path sort.
	slices.SortFunc(e.res, func(a, b *resource) int { return cmp.Compare(a.name, b.name) })
	for i, r := range e.res {
		r.order = int32(i)
	}
	return e
}

// TraceCategories enables per-category usage tracing: in addition to the
// total usage of every resource, one extra metric "usage:<cat>" (hosts) or
// "traffic:<cat>" (links) is recorded per activity category.
func (e *Engine) TraceCategories(enable bool) { e.traceCats = enable }

// SetFullRecompute disables the lazy partial invalidation (ablation knob:
// every rate change re-solves the full platform instead of the affected
// component).
func (e *Engine) SetFullRecompute(enable bool) { e.fullRecompute = enable }

// TraceStates enables behavioural tracing: every actor becomes a
// "process" resource (child of its host) whose state — compute, send,
// recv, wait, sleep — is recorded over time. This is the data classical
// Gantt-chart timeline views display; enabling it lets the same trace
// feed both the topology-based view and the Gantt baseline.
func (e *Engine) TraceStates(enable bool) { e.traceStates = enable }

// SetHostPower changes a host's compute capacity from the current
// simulated time on: running executions immediately share the new value
// and the host's power timeline records the change. It models dynamic
// availability (machines slowing down, going away with power 0, or coming
// back), which the paper's trace model explicitly covers.
func (e *Engine) SetHostPower(host string, power float64) error {
	r, ok := e.hosts[host]
	if !ok {
		return fmt.Errorf("sim: unknown host %q", host)
	}
	if !(power >= 0) || math.IsInf(power, 1) {
		return fmt.Errorf("sim: power %g for host %q is not a finite non-negative number", power, host)
	}
	r.nominal = power
	if r.down {
		// Takes effect at the recovery event; the power timeline keeps
		// showing 0 until then.
		return nil
	}
	r.capacity = power
	e.markDirty(r)
	if e.tr != nil {
		mustSet(e.tr.Set(e.now, host, trace.MetricPower, power))
	}
	return nil
}

// Now returns the current simulated time.
func (e *Engine) Now() float64 { return e.now }

// Platform returns the platform the engine simulates.
func (e *Engine) Platform() *platform.Platform { return e.plat }

// fail records the first structural error; Run reports it.
func (e *Engine) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

// markDirty queues a resource for the next recompute (idempotent).
func (e *Engine) markDirty(r *resource) {
	if !r.inDirty {
		r.inDirty = true
		e.dirtyList = append(e.dirtyList, r)
	}
}

// acquireActivity takes a recycled activity from the free list, or
// allocates one. The returned activity has zeroed fields and reusable
// resources/waiters backing arrays.
func (e *Engine) acquireActivity() *activity {
	if n := len(e.actPool); n > 0 {
		act := e.actPool[n-1]
		e.actPool[n-1] = nil
		e.actPool = e.actPool[:n-1]
		obsActivityPoolFree.Set(float64(n - 1))
		return act
	}
	return &activity{heapIdx: -1}
}

// releaseActivity recycles an activity. Ownership rules: communication
// activities are released by complete() — their Comm handles carry the
// final state, so nothing references the activity afterwards. Execution,
// sleep and timer activities are released by the Ctx call that created
// them, after its wait loop observed done (waiters still poll act.done,
// so the engine must not recycle them earlier).
func (e *Engine) releaseActivity(act *activity) {
	res, waiters := act.resources[:0], act.waiters[:0]
	*act = activity{heapIdx: -1, resources: res, waiters: waiters}
	e.actPool = append(e.actPool, act)
	obsActivityPoolFree.Set(float64(len(e.actPool)))
}

// Spawn registers an actor on a host. The actor starts running when Run is
// called (or immediately if spawned from inside a running actor).
//
// Spawning on an unknown host records an error that the next Run call
// returns; the result is an inert, already-finished actor, so a bad
// platform file surfaces as an error instead of a crash.
func (e *Engine) Spawn(name, host string, fn func(*Ctx)) *Actor {
	h := e.plat.Host(host)
	if h == nil {
		e.fail(fmt.Errorf("sim: spawn %q on unknown host %q", name, host))
		return &Actor{name: name, eng: e, state: actorDone}
	}
	a := &Actor{
		id:     e.nextID,
		name:   name,
		host:   h,
		eng:    e,
		resume: make(chan struct{}),
		parked: make(chan struct{}),
		state:  actorReady,
	}
	e.nextID++
	obsActorsSpawned.Inc()
	e.actors = append(e.actors, a)
	if e.traceStates && e.tr != nil {
		e.tr.MustDeclareResource(a.name, "process", h.Name)
		a.traceStates = true
	}
	a.queued = true
	e.runnable = append(e.runnable, a)
	a.start(fn)
	return a
}

// Run executes the simulation until every actor finished. It returns an
// error if an actor panicked, if the setup was structurally broken
// (unknown spawn host, missing route), or if the system deadlocks
// (actors blocked forever on unmatched communications).
func (e *Engine) Run() error {
	if err := e.drainRunnable(); err != nil {
		return err
	}
	if e.err != nil {
		return e.err
	}
	for {
		e.recomputeDirty()
		if e.faultIdx < len(e.faults) {
			// A fault is due before (or instead of) the next activity
			// event: apply it and loop — failed activities may have woken
			// actors, and the recompute must see the new capacities.
			next, pending := e.peekEventTime()
			if !pending || e.faults[e.faultIdx].Time <= next {
				fe := e.faults[e.faultIdx]
				e.faultIdx++
				if fe.Time > e.now {
					e.now = fe.Time
				}
				e.Events++
				obsEvents.Inc()
				obsFaultsApplied.Inc()
				// Fault injections are exactly the kind of rare,
				// behaviour-changing moment the black box exists for: a
				// shed or latency anomaly minutes later should be
				// attributable to this record. a = fault kind, b =
				// simulated time in milliseconds.
				obs.Flight.Record(obs.FlightFault, uint64(e.Events), int64(fe.Kind), int64(fe.Time*1e3))
				e.applyFault(fe)
				if err := e.drainRunnable(); err != nil {
					return err
				}
				if e.err != nil {
					return e.err
				}
				continue
			}
		}
		act := e.popEvent()
		if act == nil {
			break
		}
		t, _ := act.eventTime()
		if t < e.now {
			t = e.now // numerical safety: time never goes backward
		}
		e.now = t
		e.Events++
		obsEvents.Inc()
		e.fire(act)
		if err := e.drainRunnable(); err != nil {
			return err
		}
		if e.err != nil {
			return e.err
		}
	}
	// Nothing left to happen: any actor still alive is deadlocked.
	var stuck []string
	for _, a := range e.actors {
		if a.state != actorDone {
			desc := a.name
			if a.waiting != "" {
				desc += " (" + a.waiting + ")"
			}
			stuck = append(stuck, desc)
		}
	}
	if len(stuck) > 0 {
		sort.Strings(stuck)
		return fmt.Errorf("sim: deadlock at t=%g, %d actor(s) blocked: %v", e.now, len(stuck), stuck)
	}
	if e.tr != nil {
		e.tr.SetEnd(e.now)
	}
	return nil
}

// drainRunnable runs every runnable actor until it blocks or finishes.
// Actors woken or spawned while draining are processed too. The queue is
// consumed through a cursor and reset when drained, so the backing array
// survives the whole run instead of being abandoned by front-reslicing.
func (e *Engine) drainRunnable() error {
	for e.runHead < len(e.runnable) {
		a := e.runnable[e.runHead]
		e.runnable[e.runHead] = nil
		e.runHead++
		a.queued = false
		if a.state == actorDone {
			continue
		}
		a.state = actorRunning
		a.resume <- struct{}{}
		<-a.parked
		if a.state == actorDone && a.err != nil {
			return fmt.Errorf("sim: actor %q failed: %w", a.name, a.err)
		}
	}
	e.runnable = e.runnable[:0]
	e.runHead = 0
	return nil
}

func (e *Engine) wake(a *Actor) {
	if a.state == actorDone || a.queued {
		return
	}
	a.queued = true
	e.runnable = append(e.runnable, a)
}

// fire processes the pending event of an activity: end of its delay phase
// or completion of its work phase.
func (e *Engine) fire(act *activity) {
	if act.done {
		return
	}
	if !act.attached {
		// Delay elapsed.
		act.delay = 0
		act.lastUpdate = e.now
		if act.kind == actSleep || act.remaining <= 0 || len(act.resources) == 0 {
			e.complete(act)
			return
		}
		if r := e.failedResource(act); r != nil {
			// The resource died during the delay phase; attaching would
			// leave a zero-rate flow with no pending event.
			e.failActivity(act, r)
			return
		}
		// Enter the flow phase.
		act.attached = true
		for _, r := range act.resources {
			r.addFlow(act)
			e.markDirty(r)
		}
		return
	}
	act.settle(e.now)
	act.remaining = 0
	e.complete(act)
}

// HostPair identifies a directed host-to-host communication.
type HostPair struct {
	Src, Dst string
}

// CommBytes returns the bytes delivered between every (source,
// destination) host pair so far — the raw data of a communication matrix.
// The returned map is a copy.
func (e *Engine) CommBytes() map[HostPair]float64 {
	return maps.Clone(e.commBytes)
}

func (e *Engine) complete(act *activity) {
	if act.done {
		return
	}
	act.done = true
	obsActivitiesDone.Inc()
	e.heapRemove(act)
	isComm := act.kind == actComm
	if isComm && act.totalBytes > 0 {
		delivered := act.totalBytes
		if act.failure != nil {
			delivered -= act.remaining // only what crossed before the fault
		}
		if delivered > 0 {
			e.commBytes[HostPair{Src: act.srcHost, Dst: act.dstHost}] += delivered
		}
	}
	if act.attached {
		for _, r := range act.resources {
			r.removeFlow(act)
			e.markDirty(r)
		}
		act.attached = false
	}
	for _, w := range act.waiters {
		e.wake(w)
	}
	act.waiters = act.waiters[:0]
	if c := act.comms[0]; c != nil {
		c.finish(act)
	}
	if c := act.comms[1]; c != nil {
		c.finish(act)
	}
	if isComm {
		// Both handles now carry the outcome; nothing references the
		// activity any more, so it goes back to the pool.
		e.releaseActivity(act)
	}
}

// startActivity registers a new activity and schedules its first event.
func (e *Engine) startActivity(act *activity) {
	act.id = e.nextID
	e.nextID++
	act.lastUpdate = e.now
	if r := e.failedResource(act); r != nil {
		// Work placed on a dead resource fails immediately, like a
		// refused connection; waiters observe the failure through the
		// error-returning wait variants.
		e.failActivity(act, r)
		return
	}
	if act.delay > 0 {
		// Delay phase first; the flow attaches when it elapses.
		e.scheduleEvent(act)
		return
	}
	if act.kind == actSleep || act.remaining <= 0 || len(act.resources) == 0 {
		// Nothing to do: complete immediately (zero-size transfer with no
		// latency, zero-flop execution, zero sleep).
		e.complete(act)
		return
	}
	act.attached = true
	for _, r := range act.resources {
		r.addFlow(act)
		e.markDirty(r)
	}
}

// --- Indexed event queue ---
//
// A binary min-heap over (time, activity id) where every live activity
// holds its own slot index. Reschedules after a rate change update the
// entry in place (sift up or down), so the queue never accumulates stale
// entries and pushes never go through an interface (the container/heap
// boxing was one allocation per event in the old engine).

// scheduleEvent inserts, updates or withdraws the queue entry of an
// activity so it matches eventTime().
func (e *Engine) scheduleEvent(act *activity) {
	t, ok := act.eventTime()
	if !ok {
		// No pending event (zero-rate flow): withdraw any stale entry so
		// it cannot fire at an outdated time.
		e.heapRemove(act)
		return
	}
	if i := int(act.heapIdx); i >= 0 {
		if e.queue[i].t == t {
			return
		}
		e.queue[i].t = t
		e.heapFix(i)
		return
	}
	e.queue = append(e.queue, eventEntry{t: t, act: act})
	i := len(e.queue) - 1
	act.heapIdx = int32(i)
	e.heapUp(i)
}

func (e *Engine) popEvent() *activity {
	if len(e.queue) == 0 {
		return nil
	}
	act := e.queue[0].act
	e.heapRemoveAt(0)
	obsQueueDepth.Set(float64(len(e.queue)))
	return act
}

// peekEventTime returns the time of the earliest pending activity event
// without consuming it.
func (e *Engine) peekEventTime() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].t, true
}

func (e *Engine) heapRemove(act *activity) {
	if act.heapIdx >= 0 {
		e.heapRemoveAt(int(act.heapIdx))
	}
}

func (e *Engine) heapRemoveAt(i int) {
	q := e.queue
	last := len(q) - 1
	q[i].act.heapIdx = -1
	if i != last {
		q[i] = q[last]
		q[i].act.heapIdx = int32(i)
	}
	q[last] = eventEntry{}
	e.queue = q[:last]
	if i != last {
		e.heapFix(i)
	}
}

func (e *Engine) heapLessAt(i, j int) bool {
	a, b := &e.queue[i], &e.queue[j]
	if a.t != b.t {
		return a.t < b.t
	}
	return a.act.id < b.act.id
}

func (e *Engine) heapSwap(i, j int) {
	q := e.queue
	q[i], q[j] = q[j], q[i]
	q[i].act.heapIdx = int32(i)
	q[j].act.heapIdx = int32(j)
}

func (e *Engine) heapUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !e.heapLessAt(i, p) {
			break
		}
		e.heapSwap(i, p)
		i = p
	}
}

func (e *Engine) heapDown(i int) bool {
	moved := false
	n := len(e.queue)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && e.heapLessAt(r, l) {
			m = r
		}
		if !e.heapLessAt(m, i) {
			break
		}
		e.heapSwap(i, m)
		i = m
		moved = true
	}
	return moved
}

func (e *Engine) heapFix(i int) {
	if !e.heapDown(i) {
		e.heapUp(i)
	}
}

// recomputeDirty re-solves max-min sharing inside every connected component
// touched by recent activity changes, settles and re-times the affected
// flows, and traces resource usage changes.
//
// The component scan stamps resources and flows with the current scan
// epoch instead of building visited-maps, and reuses the engine's BFS
// scratch buffers, so a steady-state recompute allocates nothing.
func (e *Engine) recomputeDirty() {
	if len(e.dirtyList) == 0 {
		return
	}
	if e.fullRecompute {
		for _, r := range e.res {
			e.markDirty(r)
		}
	}
	dirty := e.dirtyList
	for _, r := range dirty {
		r.inDirty = false
	}
	e.scanEpoch++
	ep := e.scanEpoch
	resources, flows, stack := e.scanRes[:0], e.scanFlows[:0], e.scanStack[:0]
	for _, root := range dirty {
		if root.scanned == ep {
			continue
		}
		root.scanned = ep
		// BFS over the component of resources connected through flows.
		resources, flows, stack = resources[:0], flows[:0], stack[:0]
		stack = append(stack, root)
		for len(stack) > 0 {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			resources = append(resources, r)
			for _, f := range r.flows {
				if f.scanned == ep {
					continue
				}
				f.scanned = ep
				flows = append(flows, f)
				for _, fr := range f.resources {
					if fr.scanned != ep {
						fr.scanned = ep
						stack = append(stack, fr)
					}
				}
			}
		}
		e.Recomputes++
		obsRecomputes.Inc()
		obsFlowsSettled.Add(uint64(len(flows)))
		// Settle progress under the old rates before changing them.
		for _, f := range flows {
			f.settle(e.now)
		}
		solveMaxMin(resources, flows)
		for _, f := range flows {
			e.scheduleEvent(f)
		}
		for _, r := range resources {
			e.traceResource(r)
		}
	}
	e.scanRes, e.scanFlows, e.scanStack = resources[:0], flows[:0], stack[:0]
	e.dirtyList = dirty[:0]
}

// traceResource records the current total usage of a resource (and the
// per-category split when enabled) if it changed since last traced.
func (e *Engine) traceResource(r *resource) {
	if !r.traceUsage || e.tr == nil {
		return
	}
	total := 0.0
	var byCat map[string]float64
	if e.traceCats {
		if e.catScratch == nil {
			e.catScratch = make(map[string]float64)
		}
		clear(e.catScratch)
		byCat = e.catScratch
	}
	// Sum in flow-id order: float addition isn't associative, so summing
	// in arbitrary order would make the traced totals run-to-run unstable.
	for _, f := range r.flows {
		if !f.attached || f.done {
			continue
		}
		total += f.rate
		if byCat != nil {
			byCat[f.category] += f.rate
		}
	}
	if total != r.lastUsage {
		mustSet(e.tr.Set(e.now, r.name, r.usageMetric, total))
		r.lastUsage = total
	}
	if byCat != nil {
		// Write categories that changed, including ones dropping to zero.
		cats := e.catKeys[:0]
		for c := range byCat {
			cats = append(cats, c)
		}
		for c := range r.lastByCat {
			if _, live := byCat[c]; !live {
				cats = append(cats, c)
			}
		}
		slices.Sort(cats)
		for _, c := range cats {
			if c == "" {
				continue
			}
			v := byCat[c]
			if v != r.lastByCat[c] {
				mustSet(e.tr.Set(e.now, r.name, r.usageMetric+":"+c, v))
				if v == 0 {
					delete(r.lastByCat, c)
				} else {
					r.lastByCat[c] = v
				}
			}
		}
		e.catKeys = cats[:0]
	}
}

func mustSet(err error) {
	if err != nil {
		panic(err)
	}
}
