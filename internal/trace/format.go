package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"viva/internal/ingest"
)

// The text format is a deterministic, Paje-flavoured line format:
//
//	# viva trace v1
//	resource <name> <type> <parent|->
//	edge <a> <b>
//	set <time> <resource> <metric> <value>
//	add <time> <resource> <metric> <delta>
//	state <time> <resource> <value|->
//	end <time>
//
// Names containing whitespace are not supported (and never produced by the
// generators); the format favours diffability and streaming over
// generality. ParseOp is its one parser: every native reader (this
// package's Read, the columnar store's compaction, the live follower)
// turns lines into Ops through it.

const formatHeader = "# viva trace v1"

// Write serialises the trace. Resources appear in declaration order;
// events are written as "set" lines sorted by (time, resource, metric), so
// equal traces serialise identically.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, formatHeader); err != nil {
		return err
	}
	for _, r := range tr.Resources() {
		parent := r.Parent
		if parent == "" {
			parent = "-"
		}
		if _, err := fmt.Fprintf(bw, "resource %s %s %s\n", r.Name, r.Type, parent); err != nil {
			return err
		}
	}
	for _, e := range tr.Edges() {
		if _, err := fmt.Fprintf(bw, "edge %s %s\n", e.A, e.B); err != nil {
			return err
		}
	}
	type event struct {
		t        float64
		resource string
		metric   string
		v        float64
	}
	var events []event
	for _, k := range tr.varOrder {
		for _, p := range tr.vars[k].Points() {
			events = append(events, event{p.T, k.resource, k.metric, p.V})
		}
	}
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.t != b.t {
			return a.t < b.t
		}
		if a.resource != b.resource {
			return a.resource < b.resource
		}
		return a.metric < b.metric
	})
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "set %s %s %s %s\n",
			formatFloat(e.t), e.resource, e.metric, formatFloat(e.v)); err != nil {
			return err
		}
	}
	type stateEvent struct {
		t        float64
		resource string
		v        string
	}
	var stateEvents []stateEvent
	for _, name := range tr.order {
		for _, p := range tr.states[name] {
			stateEvents = append(stateEvents, stateEvent{p.t, name, p.v})
		}
	}
	sort.Slice(stateEvents, func(i, j int) bool {
		a, b := stateEvents[i], stateEvents[j]
		if a.t != b.t {
			return a.t < b.t
		}
		return a.resource < b.resource
	})
	for _, e := range stateEvents {
		v := e.v
		if v == "" {
			v = "-"
		}
		if _, err := fmt.Fprintf(bw, "state %s %s %s\n", formatFloat(e.t), e.resource, v); err != nil {
			return err
		}
	}
	_, end := tr.Window()
	if _, err := fmt.Fprintf(bw, "end %s\n", formatFloat(end)); err != nil {
		return err
	}
	return bw.Flush()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Read parses a trace previously produced by Write (or hand-written in the
// same format). It validates the hierarchy before returning. Reading runs
// on the two-stage ingest pipeline with default options; the result is
// identical at every parallelism setting.
func Read(r io.Reader) (*Trace, error) {
	return ReadWith(r, ingest.Options{})
}

// ReadWith is Read with explicit ingestion options.
func ReadWith(r io.Reader, opt ingest.Options) (*Trace, error) {
	tr := New()
	events, err := ScanOps(r, opt, tr.NewAppender().Apply)
	ingest.Events.Add(uint64(events))
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}
