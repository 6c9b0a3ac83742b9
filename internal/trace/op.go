package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"

	"viva/internal/ingest"
)

// OpKind enumerates the directives of the native grammar (see Write).
type OpKind uint8

const (
	// OpSet sets Resource/Metric to Value from time T on ("set").
	OpSet OpKind = iota
	// OpAdd adds Value to Resource/Metric from time T on ("add").
	OpAdd
	// OpState puts Resource into state Aux at time T, "" = idle
	// ("state").
	OpState
	// OpDeclare declares resource Resource of type Metric under parent
	// Aux, "" = root ("resource").
	OpDeclare
	// OpEdge declares a topology edge Resource—Aux ("edge").
	OpEdge
	// OpEnd extends the observation window to T ("end").
	OpEnd
)

// Op is one trace operation: a parsed line of the native format, or an
// event a live source emits. Field use varies by Kind; see the OpKind
// constants. The heap trace (Appender.Apply), the columnar writer and the
// live publisher all apply the same ops.
type Op struct {
	Kind     OpKind
	T        float64
	Resource string
	Metric   string
	Aux      string
	Value    float64
}

// ParseOp parses the fields of one native-format event line, numbered
// lineno, into an op. Names are interned through in, since fields alias
// the scan buffer. Times must be finite; values are checked where they
// are applied, against the sum an "add" produces.
func ParseOp(lineno int, fields [][]byte, in *ingest.Interner) (Op, error) {
	var op Op
	want := 0 // arguments after the directive
	switch string(fields[0]) {
	case "resource":
		op.Kind, want = OpDeclare, 3
	case "edge":
		op.Kind, want = OpEdge, 2
	case "set":
		op.Kind, want = OpSet, 4
	case "add":
		op.Kind, want = OpAdd, 4
	case "state":
		op.Kind, want = OpState, 3
	case "end":
		op.Kind, want = OpEnd, 1
	default:
		return op, fmt.Errorf("trace: line %d: unknown directive %q", lineno, fields[0])
	}
	if len(fields) != want+1 {
		plural := "s"
		if want == 1 {
			plural = ""
		}
		return op, fmt.Errorf("trace: line %d: %s wants %d arg%s", lineno, fields[0], want, plural)
	}
	switch op.Kind {
	case OpDeclare:
		op.Resource, op.Metric, op.Aux = in.Intern(fields[1]), in.Intern(fields[2]), internDash(in, fields[3])
		return op, nil
	case OpEdge:
		op.Resource, op.Aux = in.Intern(fields[1]), in.Intern(fields[2])
		return op, nil
	}
	t, err := strconv.ParseFloat(string(fields[1]), 64)
	if err != nil {
		return op, fmt.Errorf("trace: line %d: bad time %q", lineno, fields[1])
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return op, fmt.Errorf("trace: line %d: non-finite time %q", lineno, fields[1])
	}
	op.T = t
	switch op.Kind {
	case OpSet, OpAdd:
		v, err := strconv.ParseFloat(string(fields[4]), 64)
		if err != nil {
			return op, fmt.Errorf("trace: line %d: bad value %q", lineno, fields[4])
		}
		op.Resource, op.Metric, op.Value = in.Intern(fields[2]), in.Intern(fields[3]), v
	case OpState:
		op.Resource, op.Aux = in.Intern(fields[2]), internDash(in, fields[3])
	}
	return op, nil
}

// internDash interns a name field where "-" stands for none.
func internDash(in *ingest.Interner, b []byte) string {
	if string(b) == "-" {
		return ""
	}
	return in.Intern(b)
}

// ScanOps runs the native grammar over r: every event line is parsed by
// ParseOp and handed to apply, in input order. An error apply returns
// comes back wrapped with the line number (errors.Is still sees it).
// events counts the event lines that reached ParseOp.
func ScanOps(r io.Reader, opt ingest.Options, apply func(Op) error) (events int, err error) {
	in := ingest.NewInterner()
	err = ingest.Scan(r, ingest.DialectNative, opt, func(lineno int, kind ingest.LineKind, fields [][]byte) error {
		if kind != ingest.LineEvent {
			return nil
		}
		events++
		op, err := ParseOp(lineno, fields, in)
		if err != nil {
			return err
		}
		if err := apply(op); err != nil {
			return fmt.Errorf("trace: line %d: %w", lineno, err)
		}
		return nil
	})
	return events, err
}

// Apply performs op on the trace.
func (a *Appender) Apply(op Op) error {
	switch op.Kind {
	case OpSet:
		return a.Set(op.T, op.Resource, op.Metric, op.Value)
	case OpAdd:
		return a.Add(op.T, op.Resource, op.Metric, op.Value)
	case OpState:
		return a.tr.SetState(op.T, op.Resource, op.Aux)
	case OpDeclare:
		return a.tr.DeclareResource(op.Resource, op.Metric, op.Aux)
	case OpEdge:
		return a.tr.DeclareEdge(op.Resource, op.Aux)
	case OpEnd:
		a.tr.SetEnd(op.T)
		return nil
	}
	return fmt.Errorf("trace: unknown op kind %d", op.Kind)
}
