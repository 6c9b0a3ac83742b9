package trace

import (
	"strings"
	"testing"
)

func stateTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New()
	tr.MustDeclareResource("h", TypeHost, "")
	tr.MustDeclareResource("p0", "process", "h")
	tr.MustDeclareResource("p1", "process", "h")
	for _, ev := range []struct {
		t float64
		r string
		v string
	}{
		{0, "p0", "compute"},
		{2, "p0", "send"},
		{3, "p0", ""},
		{5, "p0", "compute"},
		{8, "p0", ""},
		{1, "p1", "recv"},
		{4, "p1", ""},
	} {
		if err := tr.SetState(ev.t, ev.r, ev.v); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetEnd(10)
	return tr
}

func TestStateAt(t *testing.T) {
	tr := stateTrace(t)
	cases := []struct {
		res  string
		t    float64
		want string
	}{
		{"p0", -1, ""},
		{"p0", 0, "compute"},
		{"p0", 1.5, "compute"},
		{"p0", 2, "send"},
		{"p0", 2.9, "send"},
		{"p0", 3.5, ""},
		{"p0", 6, "compute"},
		{"p0", 9, ""},
		{"p1", 2, "recv"},
		{"h", 2, ""}, // never set
	}
	for _, c := range cases {
		if got := tr.StateAt(c.res, c.t); got != c.want {
			t.Errorf("StateAt(%s, %g) = %q, want %q", c.res, c.t, got, c.want)
		}
	}
}

func TestStateSetErrors(t *testing.T) {
	tr := New()
	if err := tr.SetState(0, "ghost", "x"); err == nil {
		t.Error("state on undeclared resource accepted")
	}
}

func TestStateOverwriteSameInstant(t *testing.T) {
	tr := New()
	tr.MustDeclareResource("p", "process", "")
	if err := tr.SetState(1, "p", "a"); err != nil {
		t.Fatal(err)
	}
	if err := tr.SetState(1, "p", "b"); err != nil {
		t.Fatal(err)
	}
	if got := tr.StateAt("p", 1); got != "b" {
		t.Errorf("StateAt = %q, want b", got)
	}
}

func TestStateOutOfOrder(t *testing.T) {
	tr := New()
	tr.MustDeclareResource("p", "process", "")
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tr.SetState(5, "p", "late"))
	must(tr.SetState(1, "p", "early"))
	must(tr.SetState(3, "p", "middle"))
	if got := tr.StateAt("p", 2); got != "early" {
		t.Errorf("StateAt(2) = %q", got)
	}
	if got := tr.StateAt("p", 4); got != "middle" {
		t.Errorf("StateAt(4) = %q", got)
	}
	if got := tr.StateAt("p", 6); got != "late" {
		t.Errorf("StateAt(6) = %q", got)
	}
}

func TestStateIntervals(t *testing.T) {
	tr := stateTrace(t)
	ivs := tr.StateIntervals("p0", 0, 10)
	want := []StateInterval{
		{0, 2, "compute"},
		{2, 3, "send"},
		{5, 8, "compute"},
	}
	if len(ivs) != len(want) {
		t.Fatalf("intervals = %v, want %v", ivs, want)
	}
	for i := range want {
		if ivs[i] != want[i] {
			t.Fatalf("intervals = %v, want %v", ivs, want)
		}
	}
	// Clipping.
	ivs = tr.StateIntervals("p0", 2.5, 6)
	if len(ivs) != 2 || ivs[0].Start != 2.5 || ivs[0].End != 3 || ivs[1].Start != 5 || ivs[1].End != 6 {
		t.Errorf("clipped intervals = %v", ivs)
	}
	// Empty window.
	if ivs := tr.StateIntervals("p0", 20, 30); len(ivs) != 0 {
		t.Errorf("out-of-window intervals = %v", ivs)
	}
}

func TestStateDurations(t *testing.T) {
	tr := stateTrace(t)
	d := tr.StateDurations("p0", 0, 10)
	if d["compute"] != 5 || d["send"] != 1 {
		t.Errorf("durations = %v", d)
	}
}

func TestStateValuesAndResources(t *testing.T) {
	tr := stateTrace(t)
	vals := tr.StateValues()
	if len(vals) != 3 || vals[0] != "compute" || vals[1] != "recv" || vals[2] != "send" {
		t.Errorf("StateValues = %v", vals)
	}
	res := tr.StatefulResources()
	if len(res) != 2 || res[0] != "p0" || res[1] != "p1" {
		t.Errorf("StatefulResources = %v", res)
	}
	if !tr.HasStates("p0") || tr.HasStates("h") {
		t.Error("HasStates wrong")
	}
}

func TestStateRoundTrip(t *testing.T) {
	tr := stateTrace(t)
	var sb strings.Builder
	if err := Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []string{"p0", "p1"} {
		for _, probe := range []float64{0, 1, 2.5, 3.5, 6, 9} {
			if a, b := tr.StateAt(res, probe), got.StateAt(res, probe); a != b {
				t.Errorf("%s at %g: %q vs %q", res, probe, a, b)
			}
		}
	}
}

func TestStateReadErrors(t *testing.T) {
	cases := map[string]string{
		"short state":      "resource p process -\nstate 0 p\n",
		"bad state time":   "resource p process -\nstate xx p compute\n",
		"state undeclared": "state 0 ghost compute\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: bad input accepted", name)
		}
	}
}

// HasStates reports whether the resource carries state events. Only
// tests ask, so it lives here.
func (tr *Trace) HasStates(resource string) bool {
	return len(tr.states[resource]) > 0
}
