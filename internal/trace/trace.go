package trace

import (
	"fmt"
	"sort"
)

// Standard resource types. Types are open-ended strings; these are the two
// the visualization gives default shapes to (squares and diamonds).
const (
	TypeHost  = "host"
	TypeLink  = "link"
	TypeGroup = "group"
)

// Standard metric names used by the simulator and understood by the
// default visual mappings. Traces may carry any other metric names too.
const (
	MetricPower       = "power"       // host compute capacity (flop/s)
	MetricUsage       = "usage"       // host compute usage (flop/s)
	MetricBandwidth   = "bandwidth"   // link capacity (byte/s)
	MetricTraffic     = "traffic"     // link usage (byte/s)
	MetricUtilization = "utilization" // derived, in [0,1]

	// MetricAvailability records a resource's health in [0, 1]: 1 when
	// fully up, 0 while down, and the degradation factor while a link
	// runs below its nominal bandwidth. Simulators emit it when a fault
	// schedule is injected; traces without faults simply do not carry it.
	MetricAvailability = "availability"
)

// Standard state values the fault-injection path records on hosts and
// links, so failures are visible data in the behavioural half of the
// trace rather than silent gaps in the metric timelines.
const (
	StateHostDown = "host_down"   // host crashed (capacity 0)
	StateLinkDown = "link_down"   // link cut (bandwidth 0)
	StateDegraded = "degraded_bw" // link running at a fraction of nominal
)

// Resource is one monitored entity: a host, a network link, or a grouping
// node of the containment hierarchy. Parent is the name of the enclosing
// resource ("" for roots).
type Resource struct {
	Name   string
	Type   string
	Parent string
}

type varKey struct {
	resource string
	metric   string
}

// Edge is an undirected relationship between two monitored resources —
// the connectivity the topology-based visualization draws (for example a
// host and its private link, or a link and the backbone it attaches to).
type Edge struct {
	A, B string
}

// Trace holds every monitored resource, the containment hierarchy, and one
// Timeline per (resource, metric) pair. It is the in-memory form of ρ(r,t).
//
// Trace is not safe for concurrent mutation; simulators own it while
// running and hand it over to analysis afterwards.
type Trace struct {
	resources map[string]*Resource
	order     []string // declaration order, for deterministic output
	vars      map[varKey]*Timeline
	varOrder  []varKey
	edges     []Edge
	edgeSet   map[Edge]bool
	states    map[string][]statePoint
	// The observation window: start is the earliest point of any
	// timeline, tracked as points are written (points never leave a
	// timeline), hasStart whether one was written yet; end is the upper
	// bound.
	start    float64
	hasStart bool
	end      float64
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{
		resources: make(map[string]*Resource),
		vars:      make(map[varKey]*Timeline),
		edgeSet:   make(map[Edge]bool),
	}
}

// DeclareResource registers a resource. Declaring the same name twice is
// an error unless type and parent are identical (then it is a no-op).
// A non-empty parent must already be declared: the hierarchy is built
// top-down.
func (tr *Trace) DeclareResource(name, typ, parent string) error {
	if name == "" {
		return fmt.Errorf("trace: resource name must not be empty")
	}
	if prev, ok := tr.resources[name]; ok {
		if prev.Type == typ && prev.Parent == parent {
			return nil
		}
		return fmt.Errorf("trace: resource %q redeclared with different type or parent", name)
	}
	if parent != "" {
		if _, ok := tr.resources[parent]; !ok {
			return fmt.Errorf("trace: resource %q declares unknown parent %q", name, parent)
		}
	}
	tr.resources[name] = &Resource{Name: name, Type: typ, Parent: parent}
	tr.order = append(tr.order, name)
	return nil
}

// MustDeclareResource is DeclareResource, panicking on error. It is meant
// for generators whose inputs are program constants.
func (tr *Trace) MustDeclareResource(name, typ, parent string) {
	if err := tr.DeclareResource(name, typ, parent); err != nil {
		panic(err)
	}
}

// Resource returns a copy of the named resource, or nil. The copy is the
// caller's: mutating it cannot corrupt the hierarchy behind the
// aggregation tree (redeclare through DeclareResource instead).
func (tr *Trace) Resource(name string) *Resource {
	r, ok := tr.resources[name]
	if !ok {
		return nil
	}
	c := *r
	return &c
}

// Resources returns all resources in declaration order. The slice and the
// Resource structs are fresh copies; mutating them does not touch the
// trace.
func (tr *Trace) Resources() []*Resource {
	out := make([]*Resource, 0, len(tr.order))
	for _, name := range tr.order {
		c := *tr.resources[name]
		out = append(out, &c)
	}
	return out
}

// ResourcesOfType returns the resources of the given type, in declaration
// order. Like Resources, the result is a fresh copy.
func (tr *Trace) ResourcesOfType(typ string) []*Resource {
	var out []*Resource
	for _, name := range tr.order {
		if r := tr.resources[name]; r.Type == typ {
			c := *r
			out = append(out, &c)
		}
	}
	return out
}

// Children returns the names of the resources whose parent is name, in
// declaration order.
func (tr *Trace) Children(name string) []string {
	var out []string
	for _, n := range tr.order {
		if tr.resources[n].Parent == name {
			out = append(out, n)
		}
	}
	return out
}

// DeclareEdge records an undirected topology edge between two declared
// resources. Duplicate declarations (in either direction) are no-ops;
// self-edges are rejected.
func (tr *Trace) DeclareEdge(a, b string) error {
	if _, ok := tr.resources[a]; !ok {
		return fmt.Errorf("trace: edge endpoint %q undeclared", a)
	}
	if _, ok := tr.resources[b]; !ok {
		return fmt.Errorf("trace: edge endpoint %q undeclared", b)
	}
	if a == b {
		return fmt.Errorf("trace: self-edge on %q", a)
	}
	if a > b {
		a, b = b, a
	}
	e := Edge{A: a, B: b}
	if tr.edgeSet[e] {
		return nil
	}
	tr.edgeSet[e] = true
	tr.edges = append(tr.edges, e)
	return nil
}

// MustDeclareEdge is DeclareEdge, panicking on error.
func (tr *Trace) MustDeclareEdge(a, b string) {
	if err := tr.DeclareEdge(a, b); err != nil {
		panic(err)
	}
}

// Edges returns the declared topology edges in declaration order, with
// endpoints in lexicographic order within each edge.
func (tr *Trace) Edges() []Edge {
	out := make([]Edge, len(tr.edges))
	copy(out, tr.edges)
	return out
}

// Set records metric = v on the resource from time t on. The resource must
// be declared and v must be finite.
func (tr *Trace) Set(t float64, resource, metric string, v float64) error {
	tl, err := tr.ensure(resource, metric)
	if err != nil {
		return err
	}
	return tr.put(tl, t, resource, metric, v)
}

// Add records metric += dv on the resource from time t on. The sum must be
// finite, as a Set value must: a finite delta can still overflow it.
func (tr *Trace) Add(t float64, resource, metric string, dv float64) error {
	tl, err := tr.ensure(resource, metric)
	if err != nil {
		return err
	}
	return tr.put(tl, t, resource, metric, tl.At(t)+dv)
}

// put writes v on the (resource, metric) timeline tl from time t on,
// refusing a non-finite value.
func (tr *Trace) put(tl *Timeline, t float64, resource, metric string, v float64) error {
	if !validNumber(v) {
		return fmt.Errorf("trace: non-finite value for %s/%s at t=%g", resource, metric, t)
	}
	tl.Set(t, v)
	tr.observe(t)
	return nil
}

// observe widens the observation window to a point written at time t.
func (tr *Trace) observe(t float64) {
	if !tr.hasStart || t < tr.start {
		tr.start, tr.hasStart = t, true
	}
	if t > tr.end {
		tr.end = t
	}
}

func (tr *Trace) ensure(resource, metric string) (*Timeline, error) {
	if _, ok := tr.resources[resource]; !ok {
		return nil, fmt.Errorf("trace: event on undeclared resource %q", resource)
	}
	if metric == "" {
		return nil, fmt.Errorf("trace: empty metric name on resource %q", resource)
	}
	k := varKey{resource, metric}
	tl, ok := tr.vars[k]
	if !ok {
		tl = &Timeline{}
		tr.vars[k] = tl
		tr.varOrder = append(tr.varOrder, k)
	}
	return tl, nil
}

// Timeline returns the timeline of (resource, metric). It returns an empty
// (identically zero) timeline when the pair was never traced; the result
// must not be mutated by callers in that case.
func (tr *Trace) Timeline(resource, metric string) *Timeline {
	if tl, ok := tr.vars[varKey{resource, metric}]; ok {
		return tl
	}
	return &Timeline{}
}

// HasMetric reports whether the (resource, metric) pair carries data.
func (tr *Trace) HasMetric(resource, metric string) bool {
	_, ok := tr.vars[varKey{resource, metric}]
	return ok
}

// Metrics returns the sorted set of metric names appearing anywhere in the
// trace.
func (tr *Trace) Metrics() []string {
	seen := make(map[string]bool)
	for _, k := range tr.varOrder {
		seen[k.metric] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// MetricsOf returns the sorted metric names traced on the given resource.
func (tr *Trace) MetricsOf(resource string) []string {
	var out []string
	for _, k := range tr.varOrder {
		if k.resource == resource {
			out = append(out, k.metric)
		}
	}
	sort.Strings(out)
	return out
}

// SetEnd extends the observation window to at least t. Simulators call it
// once at the end of a run so that trailing idle time is part of the
// window.
func (tr *Trace) SetEnd(t float64) {
	if t > tr.end {
		tr.end = t
	}
}

// Window returns the observation window [start, end]. Start is the
// earliest point of any timeline (0 when the trace is empty).
func (tr *Trace) Window() (start, end float64) { return tr.start, tr.end }

// NumVariables returns how many (resource, metric) timelines the trace
// holds.
func (tr *Trace) NumVariables() int { return len(tr.varOrder) }

// VariableAt returns the i-th (resource, metric) pair in declaration
// order, i in [0, NumVariables()). Pairs are only ever appended, so a
// live consumer can discover new timelines incrementally by remembering
// how many it has seen.
func (tr *Trace) VariableAt(i int) (resource, metric string) {
	k := tr.varOrder[i]
	return k.resource, k.metric
}

// Roots returns the names of resources without a parent, in declaration
// order.
func (tr *Trace) Roots() []string {
	var out []string
	for _, n := range tr.order {
		if tr.resources[n].Parent == "" {
			out = append(out, n)
		}
	}
	return out
}

// Validate checks structural invariants: every parent exists and the
// hierarchy is acyclic. Traces built through DeclareResource always pass;
// Validate guards traces read from files.
func (tr *Trace) Validate() error {
	for _, r := range tr.resources {
		seen := map[string]bool{r.Name: true}
		for cur := r.Parent; cur != ""; {
			p, ok := tr.resources[cur]
			if !ok {
				return fmt.Errorf("trace: resource %q has unknown ancestor %q", r.Name, cur)
			}
			if seen[cur] {
				return fmt.Errorf("trace: hierarchy cycle through %q", cur)
			}
			seen[cur] = true
			cur = p.Parent
		}
	}
	return nil
}
