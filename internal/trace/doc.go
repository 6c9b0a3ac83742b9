// Package trace implements the trace substrate of the topology-based
// visualization: timestamped metric timelines attached to monitored
// resources, plus a deterministic text format to persist them.
//
// A trace is the discrete realisation of the paper's ρ : R × T → ℝ
// (Section 3.2): for each resource r and metric name m, the trace stores a
// piecewise-constant Timeline giving ρ(r, t) for every instant t of the
// observation window. Timelines support exact integration over arbitrary
// intervals, which is the building block of the temporal aggregation
// F_{Γ,Δ} (Equation 1 of the paper).
//
// Resources are hierarchical: every resource names a parent, so a trace
// carries the containment tree (grid → site → cluster → host) that spatial
// aggregation cuts across. Resources also declare a type (for example
// "host" or "link"); the visualization maps each type to its own geometric
// shape and its own independent size scale.
//
// Each line of the text format parses into an Op (ParseOp), the one
// vocabulary of trace mutations: the heap trace, the columnar store and
// the live stream all apply the same Ops.
package trace
