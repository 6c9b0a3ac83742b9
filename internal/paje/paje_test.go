package paje

import (
	"fmt"
	"strings"
	"testing"

	"viva/internal/aggregation"
	"viva/internal/ingest"
	"viva/internal/trace"
)

// sampleHeader is a Paje header in the SimGrid style.
const sampleHeader = `%EventDef PajeDefineContainerType 0
%	Alias string
%	Type string
%	Name string
%EndEventDef
%EventDef PajeDefineVariableType 1
%	Alias string
%	Type string
%	Name string
%EndEventDef
%EventDef PajeDefineStateType 2
%	Alias string
%	Type string
%	Name string
%EndEventDef
%EventDef PajeDefineEntityValue 3
%	Alias string
%	Type string
%	Name string
%	Color color
%EndEventDef
%EventDef PajeCreateContainer 4
%	Time date
%	Alias string
%	Type string
%	Container string
%	Name string
%EndEventDef
%EventDef PajeDestroyContainer 5
%	Time date
%	Type string
%	Name string
%EndEventDef
%EventDef PajeSetVariable 6
%	Time date
%	Type string
%	Container string
%	Value double
%EndEventDef
%EventDef PajeAddVariable 7
%	Time date
%	Type string
%	Container string
%	Value double
%EndEventDef
%EventDef PajeSubVariable 8
%	Time date
%	Type string
%	Container string
%	Value double
%EndEventDef
%EventDef PajeSetState 9
%	Time date
%	Type string
%	Container string
%	Value string
%EndEventDef
%EventDef PajePushState 10
%	Time date
%	Type string
%	Container string
%	Value string
%EndEventDef
%EventDef PajePopState 11
%	Time date
%	Type string
%	Container string
%EndEventDef
`

const sampleBody = `0 ZONE 0 Zone
0 HOST ZONE HOST
0 LINK ZONE LINK
0 PROC HOST Process
1 power HOST power
1 bw LINK bandwidth
1 bwu LINK bandwidth_used
2 STATE PROC "Process State"
3 Scompute STATE computing "0 1 0"
3 Ssend STATE sending "1 0 0"
4 0 z1 ZONE 0 "AS0"
4 0 h1 HOST z1 "Tremblay"
4 0 h2 HOST z1 "Jupiter"
4 0 l1 LINK z1 "6"
4 0 p1 PROC h1 "worker-0"
6 0 power h1 100
6 0 power h2 50
6 0 bw l1 1000
7 1 bwu l1 250
8 3 bwu l1 250
9 0 STATE p1 Scompute
10 2 STATE p1 Ssend
11 3 STATE p1
9 4 STATE p1 Ssend
5 5 PROC p1
`

func parse(t *testing.T, text string) *trace.Trace {
	t.Helper()
	tr, err := Read(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestReadSample(t *testing.T) {
	tr := parse(t, sampleHeader+sampleBody)

	// Containers became resources with mapped types.
	for name, typ := range map[string]string{
		"AS0":      trace.TypeGroup,
		"Tremblay": trace.TypeHost,
		"Jupiter":  trace.TypeHost,
		"6":        trace.TypeLink,
		"worker-0": "process",
	} {
		r := tr.Resource(name)
		if r == nil {
			t.Fatalf("resource %q missing", name)
		}
		if r.Type != typ {
			t.Errorf("%s type = %q, want %q", name, r.Type, typ)
		}
	}
	if tr.Resource("worker-0").Parent != "Tremblay" {
		t.Errorf("worker-0 parent = %q", tr.Resource("worker-0").Parent)
	}

	// Variables mapped to our metric names.
	if got := tr.Timeline("Tremblay", trace.MetricPower).At(0); got != 100 {
		t.Errorf("Tremblay power = %g", got)
	}
	if got := tr.Timeline("6", trace.MetricBandwidth).At(0); got != 1000 {
		t.Errorf("link bandwidth = %g", got)
	}
	// Add then Sub: traffic 250 in [1,3), back to 0 after.
	if got := tr.Timeline("6", trace.MetricTraffic).At(2); got != 250 {
		t.Errorf("traffic at t=2 = %g", got)
	}
	if got := tr.Timeline("6", trace.MetricTraffic).At(3.5); got != 0 {
		t.Errorf("traffic at t=3.5 = %g", got)
	}

	// States with entity-value aliases and push/pop.
	if got := tr.StateAt("worker-0", 1); got != "computing" {
		t.Errorf("state at 1 = %q", got)
	}
	if got := tr.StateAt("worker-0", 2.5); got != "sending" {
		t.Errorf("state at 2.5 = %q", got)
	}
	if got := tr.StateAt("worker-0", 3.5); got != "" {
		t.Errorf("state at 3.5 = %q (pop should restore idle)", got)
	}
	if got := tr.StateAt("worker-0", 4.5); got != "sending" {
		t.Errorf("state at 4.5 = %q", got)
	}
}

func TestReadFeedsAggregation(t *testing.T) {
	tr := parse(t, sampleHeader+sampleBody)
	ag, err := aggregation.NewAggregator(tr)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := ag.Sum("AS0", trace.TypeHost, trace.MetricPower, aggregation.TimeSlice{Start: 0, End: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 150 {
		t.Errorf("aggregated power = %g, want 150", sum)
	}
}

func TestQuotedNamesAndComments(t *testing.T) {
	text := sampleHeader + `# a comment
4 0 c1 ZONE 0 "name with spaces"
6 0 power c1 7
`
	tr := parse(t, text)
	if tr.Resource("name with spaces") == nil {
		t.Error("quoted container name lost")
	}
}

func TestDuplicateContainerNames(t *testing.T) {
	text := sampleHeader + `4 0 z1 ZONE 0 "AS0"
4 0 h1 HOST z1 "node"
4 0 z2 ZONE z1 "sub"
4 0 h2 HOST z2 "node"
6 0 power h1 1
6 0 power h2 2
`
	tr := parse(t, text)
	if got := len(tr.ResourcesOfType(trace.TypeHost)); got != 2 {
		t.Fatalf("hosts = %d, want 2", got)
	}
	// The second "node" was disambiguated; both keep their variables.
	if got := tr.Timeline("node", trace.MetricPower).At(0); got != 1 {
		t.Errorf("first node power = %g", got)
	}
	if got := tr.Timeline("sub/node", trace.MetricPower).At(0); got != 2 {
		t.Errorf("second node power = %g", got)
	}
}

func TestErrors(t *testing.T) {
	cases := map[string]string{
		"unknown event id":   "99 0 x\n",
		"unknown container":  sampleHeader + "6 0 power ghost 1\n",
		"bad time":           sampleHeader + "4 xx c1 ZONE 0 n\n6 zz power c1 1\n",
		"short event":        sampleHeader + "4 0\n",
		"field outside def":  "%\tTime date\n",
		"end without def":    "%EndEventDef\n",
		"eventdef short":     "%EventDef PajeX\n",
		"unsupported event":  "%EventDef PajeWeird 50\n%\tTime date\n%EndEventDef\n50 1\n",
		"bad variable value": sampleHeader + "4 0 c1 ZONE 0 n\n6 0 power c1 xx\n",
	}
	for name, text := range cases {
		if _, err := Read(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLinkEventsSkipped(t *testing.T) {
	text := sampleHeader + `%EventDef PajeStartLink 12
%	Time date
%	Type string
%	Container string
%	SourceContainer string
%	Value string
%	Key string
%EndEventDef
4 0 z1 ZONE 0 "AS0"
12 1 LINK z1 z1 v k
`
	if _, err := Read(strings.NewReader(text)); err != nil {
		t.Errorf("link events should be skipped, got %v", err)
	}
}

func TestTokenize(t *testing.T) {
	var got []string
	for _, tok := range ingest.Tokenize([]byte(`1 2.5 "a b" c  "d"`), nil) {
		got = append(got, string(tok))
	}
	want := []string{"1", "2.5", "a b", "c", "d"}
	if len(got) != len(want) {
		t.Fatalf("tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokenize = %v, want %v", got, want)
		}
	}
}

// TestTraceErrorsCarryLineNumbers asserts that errors raised by the
// trace layer (not just the parser's own syntax checks) are annotated
// with the offending line, so a rejected value deep inside a large
// trace file is findable.
func TestTraceErrorsCarryLineNumbers(t *testing.T) {
	text := sampleHeader +
		"4 0 z1 ZONE 0 \"AS0\"\n" +
		"4 0 h1 HOST z1 \"Tremblay\"\n" +
		"6 0 power h1 NaN\n"
	_, err := Read(strings.NewReader(text))
	if err == nil {
		t.Fatal("NaN variable value accepted")
	}
	// The bad event is the last line of the input.
	wantLine := fmt.Sprintf("line %d", strings.Count(text, "\n"))
	if !strings.Contains(err.Error(), wantLine) {
		t.Fatalf("error %q lacks %q", err, wantLine)
	}
	if !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("error %q does not surface the trace-layer cause", err)
	}
}

// TestReadRejectsNonFiniteTime appends one event with a non-finite Time
// to the sample, once per event whose time the reader uses: each must be
// refused with the line it sits on, as the native reader does, rather
// than stretch the observation window to infinity.
func TestReadRejectsNonFiniteTime(t *testing.T) {
	for _, c := range []struct{ event, line string }{
		{"PajeSetVariable", "6 inf power h1 80"},
		{"PajeAddVariable", "7 +Inf bwu l1 10"},
		{"PajeSubVariable", "8 -inf bwu l1 10"},
		{"PajeSetState", "9 NaN STATE p1 Scompute"},
		{"PajePushState", "10 Infinity STATE p1 Ssend"},
		{"PajePopState", "11 -Infinity STATE p1"},
	} {
		text := sampleHeader + sampleBody + c.line + "\n"
		tr, err := Read(strings.NewReader(text))
		if err == nil {
			start, end := tr.Window()
			t.Errorf("%s: %q accepted, window [%g, %g]", c.event, c.line, start, end)
			continue
		}
		want := fmt.Sprintf("line %d: non-finite time", strings.Count(text, "\n"))
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q lacks %q", c.event, err, want)
		}
	}
}
