package trace

import (
	"strings"
	"testing"
)

func buildSampleTrace(t *testing.T) *Trace {
	t.Helper()
	tr := New()
	tr.MustDeclareResource("grid", TypeGroup, "")
	tr.MustDeclareResource("clusterA", TypeGroup, "grid")
	tr.MustDeclareResource("hostA", TypeHost, "clusterA")
	tr.MustDeclareResource("hostB", TypeHost, "clusterA")
	tr.MustDeclareResource("linkA", TypeLink, "grid")
	if err := tr.Set(0, "hostA", MetricPower, 100); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(0, "hostB", MetricPower, 25); err != nil {
		t.Fatal(err)
	}
	if err := tr.Set(0, "linkA", MetricBandwidth, 10000); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(1, "linkA", MetricTraffic, 5000); err != nil {
		t.Fatal(err)
	}
	if err := tr.Add(3, "linkA", MetricTraffic, -5000); err != nil {
		t.Fatal(err)
	}
	if err := tr.DeclareEdge("hostA", "linkA"); err != nil {
		t.Fatal(err)
	}
	if err := tr.DeclareEdge("linkA", "hostB"); err != nil {
		t.Fatal(err)
	}
	tr.SetEnd(10)
	return tr
}

func TestDeclareEdge(t *testing.T) {
	tr := buildSampleTrace(t)
	if got := len(tr.Edges()); got != 2 {
		t.Fatalf("Edges = %d, want 2", got)
	}
	// Endpoints are normalised lexicographically.
	if e := tr.Edges()[1]; e.A != "hostB" || e.B != "linkA" {
		t.Errorf("edge = %+v, want normalised {hostB linkA}", e)
	}
	// Duplicates (either direction) are no-ops.
	if err := tr.DeclareEdge("linkA", "hostA"); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Edges()); got != 2 {
		t.Errorf("duplicate edge stored: %d", got)
	}
	// Errors.
	if err := tr.DeclareEdge("hostA", "nope"); err == nil {
		t.Error("edge to undeclared resource accepted")
	}
	if err := tr.DeclareEdge("nope", "hostA"); err == nil {
		t.Error("edge from undeclared resource accepted")
	}
	if err := tr.DeclareEdge("hostA", "hostA"); err == nil {
		t.Error("self-edge accepted")
	}
}

func TestDeclareResource(t *testing.T) {
	tr := New()
	if err := tr.DeclareResource("a", TypeHost, ""); err != nil {
		t.Fatal(err)
	}
	// Idempotent re-declaration.
	if err := tr.DeclareResource("a", TypeHost, ""); err != nil {
		t.Errorf("idempotent redeclare failed: %v", err)
	}
	// Conflicting re-declaration.
	if err := tr.DeclareResource("a", TypeLink, ""); err == nil {
		t.Error("conflicting redeclare accepted")
	}
	// Unknown parent.
	if err := tr.DeclareResource("b", TypeHost, "nope"); err == nil {
		t.Error("unknown parent accepted")
	}
	// Empty name.
	if err := tr.DeclareResource("", TypeHost, ""); err == nil {
		t.Error("empty name accepted")
	}
}

func TestEventsOnUndeclaredResource(t *testing.T) {
	tr := New()
	if err := tr.Set(0, "ghost", MetricPower, 1); err == nil {
		t.Error("Set on undeclared resource accepted")
	}
	if err := tr.Add(0, "ghost", MetricPower, 1); err == nil {
		t.Error("Add on undeclared resource accepted")
	}
}

func TestNonFiniteValuesRejected(t *testing.T) {
	tr := New()
	tr.MustDeclareResource("h", TypeHost, "")
	inf := 1.0
	for i := 0; i < 2000; i++ {
		inf *= 10
	}
	if err := tr.Set(0, "h", MetricPower, inf); err == nil {
		t.Error("infinite value accepted")
	}
	nan := inf / inf
	if err := tr.Add(0, "h", MetricPower, nan); err == nil {
		t.Error("NaN delta accepted")
	}
}

func TestResourceQueries(t *testing.T) {
	tr := buildSampleTrace(t)
	if got := len(tr.Resources()); got != 5 {
		t.Errorf("Resources len = %d, want 5", got)
	}
	hosts := tr.ResourcesOfType(TypeHost)
	if len(hosts) != 2 || hosts[0].Name != "hostA" || hosts[1].Name != "hostB" {
		t.Errorf("ResourcesOfType(host) = %v", hosts)
	}
	if got := tr.Children("clusterA"); len(got) != 2 {
		t.Errorf("Children(clusterA) = %v", got)
	}
	if got := tr.Roots(); len(got) != 1 || got[0] != "grid" {
		t.Errorf("Roots = %v", got)
	}
	if tr.Resource("hostA") == nil || tr.Resource("nope") != nil {
		t.Error("Resource lookup broken")
	}
}

func TestTimelineLookup(t *testing.T) {
	tr := buildSampleTrace(t)
	if got := tr.Timeline("linkA", MetricTraffic).At(2); got != 5000 {
		t.Errorf("traffic at t=2: %g, want 5000", got)
	}
	if got := tr.Timeline("linkA", MetricTraffic).At(4); got != 0 {
		t.Errorf("traffic at t=4: %g, want 0", got)
	}
	// Missing pair yields the zero timeline.
	if got := tr.Timeline("hostA", "nope").At(2); got != 0 {
		t.Errorf("missing metric at t=2: %g, want 0", got)
	}
	if tr.HasMetric("hostA", "nope") {
		t.Error("HasMetric true for missing metric")
	}
	if !tr.HasMetric("hostA", MetricPower) {
		t.Error("HasMetric false for present metric")
	}
}

func TestMetricsListing(t *testing.T) {
	tr := buildSampleTrace(t)
	got := tr.Metrics()
	want := []string{MetricBandwidth, MetricPower, MetricTraffic}
	if len(got) != len(want) {
		t.Fatalf("Metrics = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Metrics = %v, want %v", got, want)
		}
	}
	hm := tr.MetricsOf("hostA")
	if len(hm) != 1 || hm[0] != MetricPower {
		t.Errorf("MetricsOf(hostA) = %v", hm)
	}
}

func TestWindow(t *testing.T) {
	tr := buildSampleTrace(t)
	start, end := tr.Window()
	if start != 0 || end != 10 {
		t.Errorf("Window = [%g,%g], want [0,10]", start, end)
	}
	empty := New()
	s, e := empty.Window()
	if s != 0 || e != 0 {
		t.Errorf("empty Window = [%g,%g], want [0,0]", s, e)
	}
}

func TestValidate(t *testing.T) {
	tr := buildSampleTrace(t)
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	// Manufacture a cycle by poking internals.
	tr.resources["grid"].Parent = "hostA"
	if err := tr.Validate(); err == nil {
		t.Error("cyclic hierarchy accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	tr := buildSampleTrace(t)
	var sb strings.Builder
	if err := Write(&sb, tr); err != nil {
		t.Fatal(err)
	}
	got, err := Read(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Resources()) != len(tr.Resources()) {
		t.Fatalf("resource count mismatch: %d vs %d", len(got.Resources()), len(tr.Resources()))
	}
	for _, r := range tr.Resources() {
		g := got.Resource(r.Name)
		if g == nil || g.Type != r.Type || g.Parent != r.Parent {
			t.Errorf("resource %q mismatch after roundtrip", r.Name)
		}
	}
	for _, res := range tr.Resources() {
		for _, m := range tr.MetricsOf(res.Name) {
			for _, probe := range []float64{0, 0.5, 1, 2, 3, 5, 9.9} {
				a := tr.Timeline(res.Name, m).At(probe)
				b := got.Timeline(res.Name, m).At(probe)
				if a != b {
					t.Errorf("%s/%s at %g: %g vs %g", res.Name, m, probe, a, b)
				}
			}
		}
	}
	_, e1 := tr.Window()
	_, e2 := got.Window()
	if e1 != e2 {
		t.Errorf("window end mismatch: %g vs %g", e1, e2)
	}
	if len(got.Edges()) != len(tr.Edges()) {
		t.Errorf("edges lost in roundtrip: %d vs %d", len(got.Edges()), len(tr.Edges()))
	}
}

func TestWriteDeterministic(t *testing.T) {
	a, b := buildSampleTrace(t), buildSampleTrace(t)
	var sa, sb strings.Builder
	if err := Write(&sa, a); err != nil {
		t.Fatal(err)
	}
	if err := Write(&sb, b); err != nil {
		t.Fatal(err)
	}
	if sa.String() != sb.String() {
		t.Error("identical traces serialise differently")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown directive": "frob x y z\n",
		"bad time":          "resource h host -\nset xx h power 1\n",
		"bad value":         "resource h host -\nset 0 h power zz\n",
		"short resource":    "resource h host\n",
		"short set":         "resource h host -\nset 0 h power\n",
		"undeclared":        "set 0 ghost power 1\n",
		"bad end":           "end zz\n",
		"short end":         "end\n",
		"short edge":        "resource h host -\nedge h\n",
		"edge undeclared":   "resource h host -\nedge h ghost\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input)); err == nil {
			t.Errorf("%s: bad input accepted", name)
		}
	}
}

func TestCompactAll(t *testing.T) {
	tr := New()
	tr.MustDeclareResource("h", TypeHost, "")
	for i := 0; i < 10; i++ {
		if err := tr.Set(float64(i), "h", MetricUsage, float64(i/5)); err != nil {
			t.Fatal(err)
		}
	}
	removed := tr.CompactAll()
	if removed != 8 { // 10 points carry only 2 distinct runs
		t.Errorf("removed = %d, want 8", removed)
	}
	if got := tr.Timeline("h", MetricUsage).At(7); got != 1 {
		t.Errorf("value after compaction = %g", got)
	}
	if tr.CompactAll() != 0 {
		t.Error("second compaction removed points")
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	input := "# a comment\n\nresource h host -\n   \nset 0 h power 5\nend 1\n"
	tr, err := Read(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Timeline("h", "power").At(0); got != 5 {
		t.Errorf("power = %g, want 5", got)
	}
}

// CompactAll merges consecutive equal-valued points in every timeline,
// preserving every denoted function while shrinking storage — useful
// after long simulations whose rate recomputations wrote redundant
// points. It returns the number of points removed.
func (tr *Trace) CompactAll() int {
	removed := 0
	for _, k := range tr.varOrder {
		tl := tr.vars[k]
		before := tl.Len()
		tl.Compact()
		removed += before - tl.Len()
	}
	return removed
}
