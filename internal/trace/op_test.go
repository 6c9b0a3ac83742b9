package trace

import (
	"bytes"
	"strings"
	"testing"

	"viva/internal/ingest"
)

// nonFiniteTimes holds one line per timed directive whose time is not
// finite. A reader that accepted one opened a view over the window
// [0,+Inf], whose Eq. 1 means were NaN.
var nonFiniteTimes = map[string]string{
	"set":   "set inf h usage 1",
	"add":   "add -Inf h usage 1",
	"state": "state NaN h busy",
	"end":   "end +inf",
}

// TestReadRejectsNonFiniteTime checks every timed directive refuses a
// non-finite time, naming its line.
func TestReadRejectsNonFiniteTime(t *testing.T) {
	for directive, line := range nonFiniteTimes {
		input := "resource h host -\nset 0 h power 5\n" + line + "\nend 2\n"
		_, err := Read(strings.NewReader(input))
		if err == nil || !strings.Contains(err.Error(), "line 3: non-finite time") {
			t.Errorf("%s: err = %v, want a non-finite time on line 3", directive, err)
		}
	}
}

// TestAddRejectsOverflowingSum checks an add whose finite delta pushes the
// sum past float64 is refused like a non-finite set, so the heap never
// holds a value Write would emit and Read refuse.
func TestAddRejectsOverflowingSum(t *testing.T) {
	input := "resource h host -\nset 0 h u 1e308\nadd 1 h u 1e308\n"
	if tr, err := Read(strings.NewReader(input)); err == nil {
		var out bytes.Buffer
		_ = Write(&out, tr)
		t.Fatalf("overflowing add accepted; the trace writes as\n%s", out.Bytes())
	}
	tr := New()
	tr.MustDeclareResource("h", TypeHost, "")
	if err := tr.Set(0, "h", "u", 1e308); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(1, "h", "u", 1e308); err == nil {
		t.Error("Trace.Add accepted an overflowing sum")
	}
	if err := tr.NewAppender().Add(1, "h", "u", 1e308); err == nil {
		t.Error("Appender.Add accepted an overflowing sum")
	}
	if got := tr.Timeline("h", "u").At(1); got != 1e308 {
		t.Errorf("value after the refused adds = %g, want 1e308", got)
	}
}

// TestParseOp pins the op each directive parses to, "-" standing for no
// parent and idle.
func TestParseOp(t *testing.T) {
	in := ingest.NewInterner()
	for line, want := range map[string]Op{
		"resource h host -":  {Kind: OpDeclare, Resource: "h", Metric: "host"},
		"resource h host g":  {Kind: OpDeclare, Resource: "h", Metric: "host", Aux: "g"},
		"edge a b":           {Kind: OpEdge, Resource: "a", Aux: "b"},
		"set 1.5 h usage 2":  {Kind: OpSet, T: 1.5, Resource: "h", Metric: "usage", Value: 2},
		"add 2 h usage -0.5": {Kind: OpAdd, T: 2, Resource: "h", Metric: "usage", Value: -0.5},
		"state 3 h busy":     {Kind: OpState, T: 3, Resource: "h", Aux: "busy"},
		"state 4 h -":        {Kind: OpState, T: 4, Resource: "h"},
		"end 5":              {Kind: OpEnd, T: 5},
	} {
		got, err := ParseOp(1, ingest.Fields([]byte(line), nil), in)
		if err != nil || got != want {
			t.Errorf("%q: got %+v, %v; want %+v", line, got, err, want)
		}
	}
}
