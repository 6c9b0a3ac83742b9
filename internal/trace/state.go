package trace

import (
	"fmt"
	"sort"
)

// States are the behavioural half of a trace: piecewise-constant string
// values ("compute", "send", …) attached to resources, typically to
// processes. They are what classical Gantt-chart timeline views display —
// the visualization the paper contrasts with — and this library keeps them
// so both representations can be drawn from one trace.

// StateInterval is one maximal span during which a resource stayed in one
// state. An empty Value means idle.
type StateInterval struct {
	Start, End float64
	Value      string
}

type statePoint struct {
	t float64
	v string
}

// StatePoint is one state-change event: the resource enters state Value at
// time T. It is the exported form StatePoints hands out, so serializers
// (the on-disk store, format writers) can round-trip the behavioural half
// of a trace without reaching into internals.
type StatePoint struct {
	T     float64
	Value string
}

// StatePoints returns the resource's state-change events in time order.
// The slice is a fresh copy.
func (tr *Trace) StatePoints(resource string) []StatePoint {
	pts := tr.states[resource]
	out := make([]StatePoint, len(pts))
	for i, p := range pts {
		out[i] = StatePoint{T: p.t, Value: p.v}
	}
	return out
}

// SetState records that the resource is in the given state from time t on.
// An empty value means idle. The resource must be declared.
func (tr *Trace) SetState(t float64, resource, value string) error {
	if _, ok := tr.resources[resource]; !ok {
		return fmt.Errorf("trace: state on undeclared resource %q", resource)
	}
	if tr.states == nil {
		tr.states = make(map[string][]statePoint)
	}
	pts := tr.states[resource]
	n := len(pts)
	switch {
	case n > 0 && pts[n-1].t == t:
		pts[n-1].v = value
	case n > 0 && pts[n-1].t > t:
		// Out-of-order set: insert, keeping order.
		i := sort.Search(n, func(i int) bool { return pts[i].t >= t })
		if i < n && pts[i].t == t {
			pts[i].v = value
		} else {
			pts = append(pts, statePoint{})
			copy(pts[i+1:], pts[i:])
			pts[i] = statePoint{t, value}
		}
	default:
		pts = append(pts, statePoint{t, value})
	}
	tr.states[resource] = pts
	if t > tr.end {
		tr.end = t
	}
	return nil
}

// StateAt returns the state of the resource at time t ("" when idle or
// never set).
func (tr *Trace) StateAt(resource string, t float64) string {
	pts := tr.states[resource]
	i := sort.Search(len(pts), func(i int) bool { return pts[i].t > t })
	if i == 0 {
		return ""
	}
	return pts[i-1].v
}

// StateIntervals returns the resource's state spans clipped to [a, b],
// idle ("") spans omitted.
func (tr *Trace) StateIntervals(resource string, a, b float64) []StateInterval {
	pts := tr.states[resource]
	var out []StateInterval
	for i, p := range pts {
		end := b
		if i+1 < len(pts) && pts[i+1].t < b {
			end = pts[i+1].t
		}
		start := p.t
		if start < a {
			start = a
		}
		if p.v == "" || end <= start || start >= b {
			continue
		}
		out = append(out, StateInterval{Start: start, End: end, Value: p.v})
	}
	return out
}

// StateDurations sums, per state value, the time the resource spent in it
// within [a, b].
func (tr *Trace) StateDurations(resource string, a, b float64) map[string]float64 {
	out := make(map[string]float64)
	for _, iv := range tr.StateIntervals(resource, a, b) {
		out[iv.Value] += iv.End - iv.Start
	}
	return out
}

// StateValues returns the sorted set of state values appearing anywhere in
// the trace.
func (tr *Trace) StateValues() []string {
	seen := make(map[string]bool)
	for _, pts := range tr.states {
		for _, p := range pts {
			if p.v != "" {
				seen[p.v] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// StatefulResources returns the names of resources carrying state events,
// in declaration order.
func (tr *Trace) StatefulResources() []string {
	var out []string
	for _, name := range tr.order {
		if len(tr.states[name]) > 0 {
			out = append(out, name)
		}
	}
	return out
}
