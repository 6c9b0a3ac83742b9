package aggregation

import (
	"sort"
	"testing"

	"viva/internal/trace"
)

func TestLeafCut(t *testing.T) {
	tree := MustBuildTree(sampleTrace(t))
	c := NewLeafCut(tree)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := []string{"h1", "h2", "l1", "h3", "l2", "l0"}
	got := c.Active()
	if len(got) != len(want) {
		t.Fatalf("Active = %v, want %v", got, want)
	}
	if c.Size() != 6 {
		t.Errorf("Size = %d", c.Size())
	}
}

func TestLevelCuts(t *testing.T) {
	tree := MustBuildTree(sampleTrace(t))
	cases := []struct {
		depth int
		want  []string
	}{
		{0, []string{"grid"}},
		{1, []string{"site1", "l0"}},
		{2, []string{"c1", "c2", "l0"}},
		{3, []string{"h1", "h2", "l1", "h3", "l2", "l0"}},
		{9, []string{"h1", "h2", "l1", "h3", "l2", "l0"}},
	}
	for _, cse := range cases {
		c := NewLevelCut(tree, cse.depth)
		if err := c.Validate(); err != nil {
			t.Errorf("depth %d: %v", cse.depth, err)
			continue
		}
		got := c.Active()
		if len(got) != len(cse.want) {
			t.Errorf("depth %d: Active = %v, want %v", cse.depth, got, cse.want)
			continue
		}
		for i := range cse.want {
			if got[i] != cse.want[i] {
				t.Errorf("depth %d: Active = %v, want %v", cse.depth, got, cse.want)
				break
			}
		}
	}
}

func TestAggregateDisaggregate(t *testing.T) {
	tree := MustBuildTree(sampleTrace(t))
	c := NewLeafCut(tree)
	if err := c.Aggregate("c1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.IsActive("c1") || c.IsActive("h1") {
		t.Error("aggregate did not swap activation")
	}
	members := c.Members("c1")
	if len(members) != 3 {
		t.Errorf("Members(c1) = %v", members)
	}
	// Second aggregation up to the site.
	if err := c.Aggregate("site1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Members("site1")); got != 5 {
		t.Errorf("Members(site1) = %d, want 5", got)
	}
	// Back down one level.
	if err := c.Disaggregate("site1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !c.IsActive("c1") || !c.IsActive("c2") {
		t.Error("disaggregate did not activate children")
	}
}

func TestAggregateErrors(t *testing.T) {
	tree := MustBuildTree(sampleTrace(t))
	c := NewLeafCut(tree)
	if err := c.Aggregate("nope"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := c.Aggregate("h1"); err == nil {
		t.Error("aggregating an active leaf accepted")
	}
	// Aggregate grid first, then c1 would overlap.
	if err := c.Aggregate("grid"); err != nil {
		t.Fatal(err)
	}
	if err := c.Aggregate("c1"); err == nil {
		t.Error("overlapping aggregate accepted")
	}
}

func TestDisaggregateErrors(t *testing.T) {
	tree := MustBuildTree(sampleTrace(t))
	c := NewLeafCut(tree)
	if err := c.Disaggregate("nope"); err == nil {
		t.Error("unknown node accepted")
	}
	if err := c.Disaggregate("c1"); err == nil {
		t.Error("inactive node accepted")
	}
	if err := c.Disaggregate("h1"); err == nil {
		t.Error("leaf disaggregation accepted")
	}
}

func TestOwner(t *testing.T) {
	tree := MustBuildTree(sampleTrace(t))
	c := NewLevelCut(tree, 2)
	if got := c.Owner("h1"); got != "c1" {
		t.Errorf("Owner(h1) = %q, want c1", got)
	}
	if got := c.Owner("l0"); got != "l0" {
		t.Errorf("Owner(l0) = %q, want l0", got)
	}
	if got := c.Owner("nope"); got != "" {
		t.Errorf("Owner(nope) = %q, want empty", got)
	}
}

func TestProjectEdges(t *testing.T) {
	tr := sampleTrace(t)
	tree := MustBuildTree(tr)

	// Leaf cut: projection keeps every edge (no two endpoints share a
	// group).
	leaf := NewLeafCut(tree)
	pe := leaf.ProjectEdges(tr.Edges())
	if len(pe) != len(tr.Edges()) {
		t.Errorf("leaf projection = %d edges, want %d", len(pe), len(tr.Edges()))
	}

	// Cluster cut: h1-l1, h2-l1, h3-l2 collapse inside c1/c2; l1-l0 and
	// l2-l0 survive as c1-l0 and c2-l0.
	cl := NewLevelCut(tree, 2)
	pe = cl.ProjectEdges(tr.Edges())
	if len(pe) != 2 {
		t.Fatalf("cluster projection = %v", pe)
	}
	if pe[0].A != "c1" || pe[0].B != "l0" || pe[0].Multiplicity != 1 {
		t.Errorf("projected edge 0 = %+v", pe[0])
	}
	if pe[1].A != "c2" || pe[1].B != "l0" {
		t.Errorf("projected edge 1 = %+v", pe[1])
	}

	// Grid cut: everything collapses.
	top := NewLevelCut(tree, 0)
	if pe := top.ProjectEdges(tr.Edges()); len(pe) != 0 {
		t.Errorf("grid projection = %v, want none", pe)
	}
}

func TestProjectEdgesMultiplicity(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("g", trace.TypeGroup, "")
	tr.MustDeclareResource("a", trace.TypeGroup, "g")
	tr.MustDeclareResource("b", trace.TypeGroup, "g")
	tr.MustDeclareResource("a1", trace.TypeHost, "a")
	tr.MustDeclareResource("a2", trace.TypeHost, "a")
	tr.MustDeclareResource("b1", trace.TypeHost, "b")
	tr.MustDeclareResource("b2", trace.TypeHost, "b")
	tr.MustDeclareEdge("a1", "b1")
	tr.MustDeclareEdge("a2", "b2")
	tree := MustBuildTree(tr)
	c := NewLevelCut(tree, 1)
	pe := c.ProjectEdges(tr.Edges())
	if len(pe) != 1 || pe[0].Multiplicity != 2 {
		t.Errorf("projection = %v, want one edge with multiplicity 2", pe)
	}
}

// Property: any sequence of valid aggregate/disaggregate operations keeps
// the cut a partition of the leaves.
func TestCutInvariantUnderRandomOps(t *testing.T) {
	tr := sampleTrace(t)
	tree := MustBuildTree(tr)
	c := NewLeafCut(tree)
	names := tree.Names()
	// Deterministic pseudo-random walk.
	x := uint32(12345)
	next := func(n int) int {
		x = x*1664525 + 1013904223
		return int(x>>16) % n
	}
	for i := 0; i < 500; i++ {
		name := names[next(len(names))]
		if next(2) == 0 {
			_ = c.Aggregate(name)
		} else {
			_ = c.Disaggregate(name)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// IsActive reports whether a node is part of the cut.
func (c *Cut) IsActive(name string) bool { return c.active[name] }

// ProjectEdges maps base topology edges onto the cut: each endpoint is
// replaced by its active group and duplicate group pairs are merged, with
// their multiplicity counted. Edges internal to one group disappear
// (they become the group's own structure). The result is deterministic.
func (c *Cut) ProjectEdges(edges []trace.Edge) []ProjectedEdge {
	type key struct{ a, b string }
	counts := make(map[key]int)
	var order []key
	for _, e := range edges {
		ga, gb := c.Owner(e.A), c.Owner(e.B)
		if ga == "" || gb == "" || ga == gb {
			continue
		}
		if ga > gb {
			ga, gb = gb, ga
		}
		k := key{ga, gb}
		if counts[k] == 0 {
			order = append(order, k)
		}
		counts[k]++
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].a != order[j].a {
			return order[i].a < order[j].a
		}
		return order[i].b < order[j].b
	})
	out := make([]ProjectedEdge, 0, len(order))
	for _, k := range order {
		out = append(out, ProjectedEdge{A: k.a, B: k.b, Multiplicity: counts[k]})
	}
	return out
}

// ProjectedEdge is a merged bundle of base edges between two active
// groups.
type ProjectedEdge struct {
	A, B         string
	Multiplicity int
}
