package sim

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"viva/internal/fault"
	"viva/internal/trace"
)

// ErrTimeout is returned by the timeout-aware wait variants when the
// deadline elapses before the communication completes.
var ErrTimeout = errors.New("sim: timeout")

// ErrCanceled is returned when waiting on a communication that was
// withdrawn with Cancel before it ever matched.
var ErrCanceled = errors.New("sim: communication canceled")

// ResourceFailure is the error attached to activities interrupted by a
// fault: the named resource went down at the given simulated time while
// the activity depended on it.
type ResourceFailure struct {
	Resource string
	Time     float64
}

func (f *ResourceFailure) Error() string {
	return fmt.Sprintf("sim: resource %q failed at t=%g", f.Resource, f.Time)
}

// InjectFaults arms the engine with a fault schedule. Call it after New
// and before Run; calling it several times merges the schedules. Every
// target must name a platform host or link. Injection also seeds an
// availability=1 sample for every host and link (in sorted order, so
// traces are deterministic): group availability means then average over
// all members, with only genuinely faulted ones pulling below 1.
//
// While Run executes, schedule events are interleaved with activity
// events in time order. A host or link going down interrupts every
// activity attached to it — the activity settles first, so partially
// transferred bytes stay accounted — and rejects new work until the
// matching recovery event. Degradations re-share the reduced bandwidth
// without interrupting transfers; latency spikes add to the route
// latency of transfers matched while the spike is active. The whole
// schedule is applied even when every actor finishes early, so the
// availability timelines always cover the full scenario.
func (e *Engine) InjectFaults(sched *fault.Schedule) error {
	if sched.Len() == 0 {
		return nil
	}
	evs := sched.Events()
	for _, ev := range evs {
		if ev.Kind.OnHost() {
			if _, ok := e.hosts[ev.Target]; !ok {
				return fmt.Errorf("sim: fault schedule targets unknown host %q", ev.Target)
			}
		} else {
			if _, ok := e.links[ev.Target]; !ok {
				return fmt.Errorf("sim: fault schedule targets unknown link %q", ev.Target)
			}
		}
	}
	first := len(e.faults) == 0
	e.faults = append(e.faults, evs...)
	sort.SliceStable(e.faults, func(i, j int) bool { return e.faults[i].Time < e.faults[j].Time })
	if first && e.tr != nil {
		for _, name := range sortedNames(e.hosts) {
			mustSet(e.tr.Set(e.now, name, trace.MetricAvailability, 1))
		}
		for _, name := range sortedNames(e.links) {
			mustSet(e.tr.Set(e.now, name, trace.MetricAvailability, 1))
		}
	}
	return nil
}

func sortedNames(m map[string]*resource) []string {
	return slices.Sorted(maps.Keys(m))
}

// HostAvailable reports whether the host is currently up. Unknown hosts
// report false.
func (e *Engine) HostAvailable(host string) bool {
	r, ok := e.hosts[host]
	return ok && !r.down
}

// applyFault executes one schedule event at the current simulated time.
func (e *Engine) applyFault(fe fault.Event) {
	switch fe.Kind {
	case fault.HostDown:
		e.takeDown(e.hosts[fe.Target], trace.StateHostDown, trace.MetricPower)
	case fault.HostUp:
		e.bringUp(e.hosts[fe.Target], trace.MetricPower)
	case fault.LinkDown:
		e.takeDown(e.links[fe.Target], trace.StateLinkDown, trace.MetricBandwidth)
	case fault.LinkUp:
		e.bringUp(e.links[fe.Target], trace.MetricBandwidth)
	case fault.LinkDegrade:
		r := e.links[fe.Target]
		r.degrade = fe.Factor
		if r.down {
			return // takes effect at the recovery event
		}
		r.capacity = r.nominal * r.degrade
		e.markDirty(r)
		e.traceHealth(r, trace.MetricBandwidth)
	case fault.LatencySpike:
		if e.extraLatency == nil {
			e.extraLatency = make(map[string]float64)
		}
		if fe.Factor == 0 {
			delete(e.extraLatency, fe.Target)
		} else {
			e.extraLatency[fe.Target] = fe.Factor
		}
	}
}

// takeDown crashes a resource: capacity drops to zero, every attached
// activity is interrupted with a ResourceFailure, and new activities are
// rejected until the matching bringUp. The victims are snapshotted first:
// failActivity removes each flow from r.flows, which must not happen
// under the iteration.
func (e *Engine) takeDown(r *resource, state, capMetric string) {
	if r.down {
		return
	}
	r.down = true
	r.capacity = 0
	victims := append(e.faultScratch[:0], r.flows...)
	for _, f := range victims {
		e.failActivity(f, r)
	}
	e.faultScratch = victims[:0]
	e.markDirty(r)
	if e.tr != nil {
		mustSet(e.tr.SetState(e.now, r.name, state))
		mustSet(e.tr.Set(e.now, r.name, trace.MetricAvailability, 0))
		mustSet(e.tr.Set(e.now, r.name, capMetric, 0))
	}
}

// bringUp restores a crashed resource to its nominal capacity scaled by
// any standing degradation factor.
func (e *Engine) bringUp(r *resource, capMetric string) {
	if !r.down {
		return
	}
	r.down = false
	r.capacity = r.nominal * r.degrade
	e.markDirty(r)
	e.traceHealth(r, capMetric)
}

// traceHealth records an up (possibly degraded) resource's state,
// availability and capacity.
func (e *Engine) traceHealth(r *resource, capMetric string) {
	if e.tr == nil {
		return
	}
	state := ""
	if r.degrade < 1 {
		state = trace.StateDegraded
	}
	mustSet(e.tr.SetState(e.now, r.name, state))
	mustSet(e.tr.Set(e.now, r.name, trace.MetricAvailability, r.degrade))
	mustSet(e.tr.Set(e.now, r.name, capMetric, r.capacity))
}

// failActivity interrupts one activity because resource r died. The
// activity settles first so progress made under the old rates — for
// communications, the bytes already across the wire — stays accounted.
func (e *Engine) failActivity(act *activity, r *resource) {
	if act.done {
		return
	}
	act.settle(e.now)
	act.failure = &ResourceFailure{Resource: r.name, Time: e.now}
	e.complete(act)
}

// failedResource returns a down resource the activity depends on, or nil.
func (e *Engine) failedResource(act *activity) *resource {
	for _, r := range act.resources {
		if r.down {
			return r
		}
	}
	return nil
}

// cancelTimer retires a pending timeout timer whose race was lost: its
// queue entry is withdrawn and its waiters dropped so nobody is
// spuriously woken. The caller owns the timer and releases it afterwards.
func (e *Engine) cancelTimer(act *activity) {
	if act.done {
		return
	}
	act.done = true
	e.heapRemove(act)
	act.waiters = act.waiters[:0]
}
