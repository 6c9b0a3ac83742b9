package stream

import (
	"context"
	"sort"
	"time"

	"viva/internal/trace"
)

// Replay is a Source that re-emits a finished trace in time order, the
// in-process stand-in for a live simulator. Its op order is chosen so
// that (a) every timeline sees strictly monotone appends, which extend
// its Eq. 1 index in place and never drop it, and
// (b) applying every op reproduces the original trace exactly: the final
// live state serialises byte-identically to the cold trace under
// trace.Write. That identity is the chaos harness's ground truth.
type Replay struct {
	cold *trace.Trace
	// rate is the speed factor in trace-seconds per wall-second;
	// 0 or less replays as fast as the publisher accepts.
	rate float64
}

// NewReplay replays cold at the given speed factor (trace-seconds per
// wall-second; <= 0 means unpaced).
func NewReplay(cold *trace.Trace, rate float64) *Replay {
	return &Replay{cold: cold, rate: rate}
}

// Prime declares the cold trace's catalog — resources in declaration
// order, then edges — into the live trace, so the topology is complete
// before the first event.
func (r *Replay) Prime(tr *trace.Trace) error {
	for _, res := range r.cold.Resources() {
		if err := tr.DeclareResource(res.Name, res.Type, res.Parent); err != nil {
			return err
		}
	}
	for _, e := range r.cold.Edges() {
		if err := tr.DeclareEdge(e.A, e.B); err != nil {
			return err
		}
	}
	return nil
}

// Run emits every metric point and state change of the cold trace as Set
// and State ops sorted by time (ties broken the way trace.Write sorts its
// lines), then a final End op extending the window to the cold end.
func (r *Replay) Run(ctx context.Context, emit func(Op) error) error {
	ops := make([]Op, 0, 1024)
	for i, n := 0, r.cold.NumVariables(); i < n; i++ {
		res, met := r.cold.VariableAt(i)
		tl := r.cold.Timeline(res, met)
		for j := 0; j < tl.Len(); j++ {
			p := tl.PointAt(j)
			ops = append(ops, Op{Kind: OpSet, T: p.T, Resource: res, Metric: met, Value: p.V})
		}
	}
	for _, res := range r.cold.Resources() {
		for _, sp := range r.cold.StatePoints(res.Name) {
			ops = append(ops, Op{Kind: OpState, T: sp.T, Resource: res.Name, Aux: sp.Value})
		}
	}
	// Time order first (monotone appends everywhere), then the same tie
	// order trace.Write serialises in, for determinism.
	sort.SliceStable(ops, func(i, j int) bool {
		a, b := ops[i], ops[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind // sets before states at equal time
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Metric < b.Metric
	})

	start := time.Now()
	for _, op := range ops {
		if r.rate > 0 {
			due := start.Add(time.Duration(op.T / r.rate * float64(time.Second)))
			if wait := time.Until(due); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return ctx.Err()
				}
			}
		}
		if err := emit(op); err != nil {
			return err
		}
	}
	_, end := r.cold.Window()
	return emit(Op{Kind: OpEnd, T: end})
}
