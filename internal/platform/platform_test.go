package platform

import (
	"slices"
	"testing"

	"viva/internal/trace"
)

func small(t *testing.T) *Platform {
	t.Helper()
	p := New("g")
	p.AddSite("s1", SiteConfig{BackboneBandwidth: 10 * Gbps, UplinkBandwidth: 10 * Gbps})
	p.AddSite("s2", SiteConfig{BackboneBandwidth: 10 * Gbps, UplinkBandwidth: 10 * Gbps})
	cc := ClusterConfig{
		Hosts: 3, HostPower: 1 * GFlops,
		HostLinkBandwidth: 1 * Gbps, BackboneBandwidth: 10 * Gbps, UplinkBandwidth: 1 * Gbps,
	}
	p.AddCluster("s1", "c1", cc)
	p.AddCluster("s1", "c2", cc)
	p.AddCluster("s2", "c3", cc)
	return p
}

func TestBasicStructure(t *testing.T) {
	p := small(t)
	if got := p.NumHosts(); got != 9 {
		t.Fatalf("NumHosts = %d, want 9", got)
	}
	if got := len(p.Sites()); got != 2 {
		t.Errorf("Sites = %d, want 2", got)
	}
	if got := len(p.Clusters("")); got != 3 {
		t.Errorf("Clusters = %d, want 3", got)
	}
	if got := len(p.Clusters("s1")); got != 2 {
		t.Errorf("Clusters(s1) = %d, want 2", got)
	}
	if got := p.HostsOfCluster("c2"); !slices.Equal(got, []string{"c2-1", "c2-2", "c2-3"}) {
		t.Errorf("HostsOfCluster(c2) = %v", got)
	}
	p.HostsOfCluster("c3")[0] = "mangled"
	if got := p.HostsOfCluster("c3")[0]; got != "c3-1" {
		t.Errorf("HostsOfCluster shares its result: first host %q", got)
	}
	if got := p.HostsOfCluster("nope"); got != nil {
		t.Errorf("HostsOfCluster(nope) = %v, want nil", got)
	}
	h := p.Host("c1-1")
	if h == nil || h.Cluster != "c1" || h.Site != "s1" {
		t.Errorf("Host c1-1 = %+v", h)
	}
	if p.Host("nope") != nil {
		t.Error("unknown host returned")
	}
	// Each host has a private link; each cluster a backbone and uplink;
	// each site a backbone and uplink: 9 + 3*2 + 2*2 = 19 links.
	if got := len(p.Links()); got != 19 {
		t.Errorf("Links = %d, want 19", got)
	}
	if p.Role("lnk:c1-1") != RoleHostLink {
		t.Error("host link role wrong")
	}
	if p.Role("bb:c1") != RoleBackbone {
		t.Error("backbone role wrong")
	}
	if p.Role("up:c1") != RoleUplink {
		t.Error("uplink role wrong")
	}
}

func routeNames(t *testing.T, p *Platform, a, b string) []string {
	t.Helper()
	r, err := p.Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(r))
	for i, l := range r {
		names[i] = l.Name
	}
	return names
}

func TestRouteSameHost(t *testing.T) {
	p := small(t)
	if got := routeNames(t, p, "c1-1", "c1-1"); len(got) != 0 {
		t.Errorf("same-host route = %v, want empty", got)
	}
}

func TestRouteIntraCluster(t *testing.T) {
	p := small(t)
	got := routeNames(t, p, "c1-1", "c1-2")
	want := []string{"lnk:c1-1", "bb:c1", "lnk:c1-2"}
	assertStrings(t, got, want)
}

func TestRouteIntraSite(t *testing.T) {
	p := small(t)
	got := routeNames(t, p, "c1-1", "c2-3")
	want := []string{"lnk:c1-1", "bb:c1", "up:c1", "bb:s1", "up:c2", "bb:c2", "lnk:c2-3"}
	assertStrings(t, got, want)
}

func TestRouteInterSite(t *testing.T) {
	p := small(t)
	got := routeNames(t, p, "c1-1", "c3-1")
	want := []string{"lnk:c1-1", "bb:c1", "up:c1", "bb:s1", "up:s1", "up:s2", "bb:s2", "up:c3", "bb:c3", "lnk:c3-1"}
	assertStrings(t, got, want)
}

func TestRouteSymmetric(t *testing.T) {
	p := small(t)
	fwd := routeNames(t, p, "c1-1", "c3-2")
	bwd := routeNames(t, p, "c3-2", "c1-1")
	if len(fwd) != len(bwd) {
		t.Fatalf("asymmetric lengths: %v vs %v", fwd, bwd)
	}
	for i := range fwd {
		if fwd[i] != bwd[len(bwd)-1-i] {
			t.Fatalf("route not reverse-symmetric: %v vs %v", fwd, bwd)
		}
	}
}

func TestRouteUnknownHost(t *testing.T) {
	p := small(t)
	if _, err := p.Route("nope", "c1-1"); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := p.Route("c1-1", "nope"); err == nil {
		t.Error("unknown dst accepted")
	}
}

func TestBottleneckAndLatency(t *testing.T) {
	p := small(t)
	bw, err := p.Bottleneck("c1-1", "c2-1")
	if err != nil {
		t.Fatal(err)
	}
	// The 1 Gb/s links (host links and cluster uplinks) are the bottleneck.
	if bw != 1*Gbps {
		t.Errorf("Bottleneck = %g, want %g", bw, 1*Gbps)
	}
	lat, err := p.Latency("c1-1", "c2-1")
	if err != nil {
		t.Fatal(err)
	}
	if lat != 0 { // small() sets no latencies
		t.Errorf("Latency = %g, want 0", lat)
	}
	// Same-host bottleneck falls back to the host link bandwidth.
	bw, err = p.Bottleneck("c1-1", "c1-1")
	if err != nil || bw != 1*Gbps {
		t.Errorf("same-host Bottleneck = %g, %v", bw, err)
	}
}

func TestDeclareInto(t *testing.T) {
	p := small(t)
	tr := trace.New()
	p.DeclareInto(tr)
	if err := tr.Validate(); err != nil {
		t.Fatalf("declared trace invalid: %v", err)
	}
	if got := len(tr.ResourcesOfType(trace.TypeHost)); got != 9 {
		t.Errorf("declared hosts = %d, want 9", got)
	}
	if got := len(tr.ResourcesOfType(trace.TypeLink)); got != 19 {
		t.Errorf("declared links = %d, want 19", got)
	}
	if got := tr.Timeline("c1-1", trace.MetricPower).At(0); got != 1*GFlops {
		t.Errorf("declared power = %g", got)
	}
	if got := tr.Timeline("bb:c1", trace.MetricBandwidth).At(0); got != 10*Gbps {
		t.Errorf("declared bandwidth = %g", got)
	}
	// Hierarchy: host parent is its cluster, cluster parent its site.
	if tr.Resource("c1-1").Parent != "c1" {
		t.Error("host parent wrong")
	}
	if tr.Resource("c1").Parent != "s1" {
		t.Error("cluster parent wrong")
	}
	if tr.Resource("s1").Parent != "g" {
		t.Error("site parent wrong")
	}
}

func TestEdgeList(t *testing.T) {
	p := small(t)
	edges := p.EdgeList()
	// 9 hosts × 2 + 3 clusters × 2 + 2 sites × 2 = 28 edges.
	if got := len(edges); got != 28 {
		t.Fatalf("EdgeList = %d edges, want 28", got)
	}
	has := func(a, b string) bool {
		for _, e := range edges {
			if (e.A == a && e.B == b) || (e.A == b && e.B == a) {
				return true
			}
		}
		return false
	}
	for _, want := range [][2]string{
		{"c1-1", "lnk:c1-1"},
		{"lnk:c1-1", "bb:c1"},
		{"bb:c1", "up:c1"},
		{"up:c1", "bb:s1"},
		{"bb:s1", "up:s1"},
		{"up:s1", p.CoreName()},
	} {
		if !has(want[0], want[1]) {
			t.Errorf("missing edge %v", want)
		}
	}
}

func TestDeclareIntoEdgesAndCore(t *testing.T) {
	p := small(t)
	tr := trace.New()
	p.DeclareInto(tr)
	if tr.Resource(p.CoreName()) == nil {
		t.Fatal("core pseudo-node not declared")
	}
	if got := len(tr.Edges()); got != len(p.EdgeList()) {
		t.Errorf("declared edges = %d, want %d", got, len(p.EdgeList()))
	}
}

func TestTwoClusters(t *testing.T) {
	p := TwoClusters()
	if got := p.NumHosts(); got != 22 {
		t.Fatalf("TwoClusters hosts = %d, want 22", got)
	}
	if got := len(p.Clusters("")); got != 2 {
		t.Fatalf("TwoClusters clusters = %d, want 2", got)
	}
	// Inter-cluster traffic must cross both cluster uplinks.
	names := routeNames(t, p, "adonis-1", "griffon-1")
	found := 0
	for _, n := range names {
		if n == "up:adonis" || n == "up:griffon" {
			found++
		}
	}
	if found != 2 {
		t.Errorf("inter-cluster route %v does not cross both uplinks", names)
	}
	// Intra-cluster traffic must not leave the cluster.
	for _, n := range routeNames(t, p, "adonis-1", "adonis-2") {
		if n == "up:adonis" || n == "bb:site" {
			t.Errorf("intra-cluster route leaks out: %v", names)
		}
	}
}

func TestGrid5000Shape(t *testing.T) {
	p := Grid5000()
	if got := p.NumHosts(); got != Grid5000Hosts {
		t.Fatalf("Grid5000 hosts = %d, want %d", got, Grid5000Hosts)
	}
	if got := len(p.Sites()); got != 10 {
		t.Errorf("Grid5000 sites = %d, want 10", got)
	}
	if got := len(p.Clusters("")); got != 24 {
		t.Errorf("Grid5000 clusters = %d, want 24", got)
	}
	// Heterogeneous power.
	powers := map[float64]bool{}
	for _, h := range p.Hosts() {
		powers[h.Power] = true
	}
	if len(powers) < 10 {
		t.Errorf("Grid5000 power heterogeneity too low: %d distinct values", len(powers))
	}
	// A cross-site route exists and is longer than an intra-site one.
	inter := routeNames(t, p, "adonis-1", "gdx-1")
	intra := routeNames(t, p, "adonis-1", "edel-1")
	if len(inter) <= len(intra) {
		t.Errorf("inter-site route (%d links) not longer than intra-site (%d)", len(inter), len(intra))
	}
}

func TestGrid5000DeclareIntoScale(t *testing.T) {
	p := Grid5000()
	tr := trace.New()
	p.DeclareInto(tr)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	wantLinks := p.NumHosts() + len(p.Clusters(""))*2 + len(p.Sites())*2
	if got := len(tr.ResourcesOfType(trace.TypeLink)); got != wantLinks {
		t.Errorf("declared links = %d, want %d", got, wantLinks)
	}
}

func TestBuilderPanics(t *testing.T) {
	assertPanics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	assertPanics("cluster in unknown site", func() {
		p := New("g")
		p.AddCluster("nope", "c", ClusterConfig{Hosts: 1, HostLinkBandwidth: 1, BackboneBandwidth: 1, UplinkBandwidth: 1})
	})
	assertPanics("duplicate site", func() {
		p := New("g")
		p.AddSite("s", SiteConfig{BackboneBandwidth: 1, UplinkBandwidth: 1})
		p.AddSite("s", SiteConfig{BackboneBandwidth: 1, UplinkBandwidth: 1})
	})
	assertPanics("zero hosts", func() {
		p := New("g")
		p.AddSite("s", SiteConfig{BackboneBandwidth: 1, UplinkBandwidth: 1})
		p.AddCluster("s", "c", ClusterConfig{Hosts: 0, HostLinkBandwidth: 1, BackboneBandwidth: 1, UplinkBandwidth: 1})
	})
	assertPanics("zero bandwidth link", func() {
		p := New("g")
		p.AddSite("s", SiteConfig{BackboneBandwidth: 0, UplinkBandwidth: 1})
	})
}

func assertStrings(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
