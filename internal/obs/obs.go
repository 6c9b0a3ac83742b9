// Package obs is the self-observation layer of the pipeline: lock-free
// counters, gauges and histograms in a global registry (Prometheus text
// exposition), and a stage-span API: every span feeds its stage's
// viva_stage_seconds histogram, the bounded ring of per-frame stage
// timings when an interactive frame is open, and any attached
// subscriber — such as the meta-trace that emits the spans as a Paje
// trace, so viva can load and visualize its own execution with the very
// machinery it applies to distributed systems.
//
// The hot path is allocation-free: a counter increment is one atomic add,
// a span start/stop two monotonic clock reads, one histogram observe and
// a few atomic stores. Everything else (registration, exposition,
// snapshots) is cold and may lock or allocate freely.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. The zero value is
// ready to use, but normally counters come from Registry.Counter so they
// show up in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous float64 value (stored as bits, so reads and
// writes are single atomic operations).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds dv with a CAS loop.
func (g *Gauge) Add(dv float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + dv)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket distribution. Buckets are cumulative only
// at exposition time; Observe touches exactly one bucket counter plus the
// sum and count, all atomically.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

// DefBuckets are latency-shaped default bounds, in seconds.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-quantile (0 <= q <= 1) by linear
// interpolation within the bucket holding it — the same estimate
// Prometheus's histogram_quantile computes. Observations past the last
// bound clamp to it; an empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := uint64(0)
	for i, bound := range h.bounds {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if c == 0 {
				return bound
			}
			return lower + (bound-lower)*(rank-float64(cum))/float64(c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series. Its name may carry a static label set
// (`viva_http_requests_total{path="/api/graph"}`); the family — the name
// up to the brace — groups series under one HELP/TYPE header.
type metric struct {
	name   string
	family string
	help   string
	kind   kind

	c *Counter
	g *Gauge
	h *Histogram
}

// Registry holds named metrics. Registration is idempotent: asking twice
// for the same name returns the same metric (the kind must match).
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*metric
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// Default is the process-wide registry every instrumented package
// registers into; /metrics and the -obs summary dumps read it.
var Default = NewRegistry()

func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

func (r *Registry) get(name, help string, k kind) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.byName[name]; m != nil {
		if m.kind != k {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, k, m.kind))
		}
		return m
	}
	m := &metric{name: name, family: family(name), help: help, kind: k}
	r.byName[name] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter returns the counter registered under name, creating it on
// first use.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.get(name, help, kindCounter)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.get(name, help, kindGauge)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds on first use (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	m := r.get(name, help, kindHistogram)
	if m.h == nil {
		if bounds == nil {
			bounds = DefBuckets
		}
		m.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Uint64, len(bounds)+1),
		}
	}
	return m.h
}

// sorted returns the metrics ordered by (family, name) — the stable order
// both exposition and summaries use.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].family != ms[j].family {
			return ms[i].family < ms[j].family
		}
		return ms[i].name < ms[j].name
	})
	return ms
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// withLabel splices an extra label into a possibly-labelled series name:
// withLabel(`f`, `_bucket`, `le`, `0.5`) → `f_bucket{le="0.5"}`,
// withLabel(`f{p="x"}`, `_bucket`, `le`, `0.5`) → `f_bucket{p="x",le="0.5"}`.
func withLabel(name, suffix, key, val string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		inner := strings.TrimSuffix(name[i+1:], "}")
		return name[:i] + suffix + "{" + inner + "," + key + "=" + strconv.Quote(val) + "}"
	}
	return name + suffix + "{" + key + "=" + strconv.Quote(val) + "}"
}

// withSuffix appends a name suffix before any label set:
// withSuffix(`f{p="x"}`, `_sum`) → `f_sum{p="x"}`.
func withSuffix(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// WritePrometheus writes every registered metric in the Prometheus text
// exposition format (version 0.0.4), families sorted by name, one HELP
// and TYPE header per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastFamily := ""
	for _, m := range r.sorted() {
		if m.family != lastFamily {
			help := strings.NewReplacer("\\", "\\\\", "\n", "\\n").Replace(m.help)
			fmt.Fprintf(&b, "# HELP %s %s\n", m.family, help)
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.family, m.kind)
			lastFamily = m.family
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", m.name, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %s\n", m.name, formatFloat(m.g.Value()))
		case kindHistogram:
			cum := uint64(0)
			for i, bound := range m.h.bounds {
				cum += m.h.counts[i].Load()
				fmt.Fprintf(&b, "%s %d\n", withLabel(m.name, "_bucket", "le", formatFloat(bound)), cum)
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			fmt.Fprintf(&b, "%s %d\n", withLabel(m.name, "_bucket", "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s %s\n", withSuffix(m.name, "_sum"), formatFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s %d\n", withSuffix(m.name, "_count"), m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// MetricSnapshot is one registered series' state at snapshot time — the
// machine-readable registry view the /api/obs/debug bundle embeds.
type MetricSnapshot struct {
	Name   string  `json:"name"`
	Family string  `json:"family"`
	Help   string  `json:"help,omitempty"`
	Kind   string  `json:"kind"`
	Value  float64 `json:"value,omitempty"` // counter/gauge value
	Count  uint64  `json:"count,omitempty"` // histogram observations
	Sum    float64 `json:"sum,omitempty"`   // histogram sum
	P50    float64 `json:"p50,omitempty"`   // histogram quantile estimates
	P99    float64 `json:"p99,omitempty"`
}

// Snapshot returns every registered series in (family, name) order.
func (r *Registry) Snapshot() []MetricSnapshot {
	ms := r.sorted()
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Family: m.family, Help: m.help, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.c.Value())
		case kindGauge:
			s.Value = m.g.Value()
		case kindHistogram:
			s.Count = m.h.Count()
			s.Sum = m.h.Sum()
			s.P50 = m.h.Quantile(0.50)
			s.P99 = m.h.Quantile(0.99)
		}
		out = append(out, s)
	}
	return out
}

// WriteSummary writes a human-oriented one-line-per-metric dump, the
// -obs exit report of the command-line tools. Zero-valued series are
// skipped so short runs print only what actually happened.
func (r *Registry) WriteSummary(w io.Writer) error {
	var b strings.Builder
	for _, m := range r.sorted() {
		switch m.kind {
		case kindCounter:
			if v := m.c.Value(); v != 0 {
				fmt.Fprintf(&b, "%-52s %d\n", m.name, v)
			}
		case kindGauge:
			if v := m.g.Value(); v != 0 {
				fmt.Fprintf(&b, "%-52s %s\n", m.name, formatFloat(v))
			}
		case kindHistogram:
			if n := m.h.Count(); n != 0 {
				sum := m.h.Sum()
				fmt.Fprintf(&b, "%-52s count=%d sum=%s avg=%s\n",
					m.name, n, formatFloat(sum), formatFloat(sum/float64(n)))
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
