package commmatrix

import (
	"math"
	"strings"
	"testing"

	"viva/internal/platform"
	"viva/internal/sim"
)

func TestAddAndTotals(t *testing.T) {
	m := New([]string{"a", "b", "c"})
	if !m.Add("a", "b", 10) || !m.Add("a", "b", 5) || !m.Add("b", "c", 7) {
		t.Fatal("Add failed on known names")
	}
	if m.Add("a", "ghost", 1) || m.Add("ghost", "a", 1) {
		t.Error("Add accepted unknown names")
	}
	if m.Total() != 22 {
		t.Errorf("Total = %g", m.Total())
	}
	if m.Max() != 15 {
		t.Errorf("Max = %g", m.Max())
	}
	if m.NonZeroCells() != 2 {
		t.Errorf("NonZeroCells = %d", m.NonZeroCells())
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on duplicate names")
		}
	}()
	New([]string{"a", "a"})
}

func TestGroupByConservation(t *testing.T) {
	m := New([]string{"c1-1", "c1-2", "c2-1", "c2-2"})
	m.Add("c1-1", "c2-1", 10)
	m.Add("c1-2", "c2-2", 20)
	m.Add("c1-1", "c1-2", 5)
	grouped := m.GroupBy(func(n string) string { return n[:2] })
	if len(grouped.Names) != 2 {
		t.Fatalf("groups = %v", grouped.Names)
	}
	if grouped.Total() != m.Total() {
		t.Errorf("GroupBy lost bytes: %g vs %g", grouped.Total(), m.Total())
	}
	// Cross-group cell aggregates both cross flows.
	i, j := 0, 1 // c1 -> c2
	if grouped.Bytes[i][j] != 30 {
		t.Errorf("c1->c2 = %g, want 30", grouped.Bytes[i][j])
	}
	// Intra-group traffic lands on the diagonal.
	if grouped.Bytes[0][0] != 5 {
		t.Errorf("c1->c1 = %g, want 5", grouped.Bytes[0][0])
	}
}

func TestTopPairs(t *testing.T) {
	m := New([]string{"a", "b", "c"})
	m.Add("a", "b", 10)
	m.Add("b", "c", 30)
	m.Add("c", "a", 20)
	top := m.TopPairs(2)
	if len(top) != 2 || top[0].Bytes != 30 || top[1].Bytes != 20 {
		t.Errorf("TopPairs = %v", top)
	}
	all := m.TopPairs(99)
	if len(all) != 3 {
		t.Errorf("TopPairs(99) = %v", all)
	}
}

func TestSVG(t *testing.T) {
	m := New([]string{"a", "b"})
	m.Add("a", "b", 100)
	svg := string(m.SVG(SVGOptions{Title: "matrix", LogScale: true}))
	for _, want := range []string{"<svg", "matrix", "a -> b: 100 bytes", "rgb(255,"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Empty matrix renders too.
	if len(New([]string{"x"}).SVG(SVGOptions{})) == 0 {
		t.Error("empty matrix SVG empty")
	}
}

// End to end: the engine's byte accounting fills a matrix whose totals
// match what the application shipped.
func TestFromSimulation(t *testing.T) {
	p := platform.New("g")
	p.AddSite("s", platform.SiteConfig{BackboneBandwidth: 1e9, UplinkBandwidth: 1e9})
	p.AddCluster("s", "c", platform.ClusterConfig{
		Hosts: 3, HostPower: 1e9,
		HostLinkBandwidth: 1e6, BackboneBandwidth: 1e9, UplinkBandwidth: 1e9,
	})
	e := sim.New(p, nil)
	e.Spawn("s1", "c-1", func(c *sim.Ctx) {
		c.Send("m1", nil, 1000)
		c.Send("m2", nil, 500)
	})
	e.Spawn("r1", "c-2", func(c *sim.Ctx) { c.Recv("m1") })
	e.Spawn("r2", "c-3", func(c *sim.Ctx) { c.Recv("m2"); c.Send("m3", nil, 250) })
	e.Spawn("r3", "c-1", func(c *sim.Ctx) { c.Recv("m3") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	m := New([]string{"c-1", "c-2", "c-3"})
	for pair, bytes := range e.CommBytes() {
		m.Add(pair.Src, pair.Dst, bytes)
	}
	if math.Abs(m.Total()-1750) > 1e-9 {
		t.Errorf("Total = %g, want 1750", m.Total())
	}
	top := m.TopPairs(1)
	if len(top) != 1 || top[0].Src != "c-1" || top[0].Dst != "c-2" || top[0].Bytes != 1000 {
		t.Errorf("TopPairs = %v", top)
	}
}

// NonZeroCells returns how many cells carry traffic. Only tests ask, so
// it lives here.
func (m *Matrix) NonZeroCells() int {
	n := 0
	for _, row := range m.Bytes {
		for _, v := range row {
			if v != 0 {
				n++
			}
		}
	}
	return n
}
