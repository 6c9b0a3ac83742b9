package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"viva/internal/core"
	"viva/internal/platform"
	"viva/internal/trace"
)

// fabricView builds a view over a 2-site × 2-cluster platform with the
// given number of hosts per cluster: scaling hostsPerCluster scales the
// total node count while keeping the hierarchy's upper levels fixed —
// exactly the situation viewport LOD must bound.
func fabricView(t *testing.T, hostsPerCluster int) *core.View {
	t.Helper()
	p := platform.New("g")
	sc := platform.SiteConfig{BackboneBandwidth: 1e9, UplinkBandwidth: 1e9}
	cc := platform.ClusterConfig{
		Hosts: hostsPerCluster, HostPower: 1e9,
		HostLinkBandwidth: 1e8, BackboneBandwidth: 1e9, UplinkBandwidth: 1e9,
	}
	p.AddSite("s1", sc)
	p.AddSite("s2", sc)
	p.AddCluster("s1", "c1", cc)
	p.AddCluster("s1", "c2", cc)
	p.AddCluster("s2", "c3", cc)
	p.AddCluster("s2", "c4", cc)
	tr := trace.New()
	p.DeclareInto(tr)
	v, err := core.NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The acceptance property: at a fixed viewport, the LOD payload must not
// grow with the total node count — off-screen detail collapses into the
// hierarchy's groups, whose number the platform shape fixes.
func TestGraphLODBoundedPayload(t *testing.T) {
	shape := func(hosts int) (nodes, groups, edges int) {
		srv := httptest.NewServer(New(fabricView(t, hosts)).Handler())
		defer srv.Close()
		// A viewport far outside the layout: nothing visible, everything
		// coarsened.
		var lod lodJSON
		getJSON(t, srv.URL+"/api/graph?steps=0&viewport=1e7,1e7,1.1e7,1.1e7&zoom=1", &lod)
		return len(lod.Nodes), len(lod.Groups), len(lod.Edges)
	}
	n1, g1, e1 := shape(20)
	n2, g2, e2 := shape(200)
	if n1 != 0 || n2 != 0 {
		t.Errorf("visible nodes = %d/%d, want 0 (viewport is empty)", n1, n2)
	}
	if g1 == 0 {
		t.Fatal("no coarse groups returned")
	}
	if g1 != g2 {
		t.Errorf("coarse groups grew with node count: %d at 20 hosts vs %d at 200", g1, g2)
	}
	if e1 != e2 {
		t.Errorf("coarse edges grew with node count: %d vs %d", e1, e2)
	}
	t.Logf("fixed viewport: %d groups, %d edges at both 20 and 200 hosts/cluster", g1, e1)
}

// Zooming in on one corner must keep full detail for what is inside the
// viewport and coarsen the rest.
func TestGraphLODSplitsVisibleFromCoarse(t *testing.T) {
	v := fabricView(t, 20)
	srv := httptest.NewServer(New(v).Handler())
	defer srv.Close()

	// Whole-world viewport: everything visible, nothing coarsened.
	var all lodJSON
	getJSON(t, srv.URL+"/api/graph?steps=0&viewport=-1e6,-1e6,1e6,1e6&zoom=1", &all)
	if len(all.Groups) != 0 {
		t.Errorf("whole-world viewport still has %d coarse groups", len(all.Groups))
	}
	if len(all.Nodes) != len(v.MustGraph().Nodes) {
		t.Errorf("whole-world viewport: %d nodes, want %d", len(all.Nodes), len(v.MustGraph().Nodes))
	}

	// Tight viewport around one host at an overview zoom: that node stays
	// full-detail, the rest folds to site-level groups.
	b := v.Layout().Body(all.Nodes[0].ID)
	if b == nil {
		t.Fatal("node has no body")
	}
	var one lodJSON
	getJSON(t, srv.URL+"/api/graph?steps=0&"+
		"viewport="+floatQuad(b.Pos.X-1, b.Pos.Y-1, b.Pos.X+1, b.Pos.Y+1)+"&zoom=1", &one)
	found := false
	for _, n := range one.Nodes {
		if n.ID == all.Nodes[0].ID {
			found = true
		}
	}
	if !found {
		t.Errorf("focused node %s missing from LOD nodes", all.Nodes[0].ID)
	}
	if len(one.Groups) == 0 {
		t.Error("no coarse groups despite a tight viewport")
	}
	if len(one.Nodes)+len(one.Groups) >= len(all.Nodes) {
		t.Errorf("LOD did not reduce: %d nodes + %d groups vs %d full nodes",
			len(one.Nodes), len(one.Groups), len(all.Nodes))
	}
}

// LOD responses are per-request (viewport and zoom vary) and must never
// be served from — or stored into — the settled-graph byte cache.
func TestGraphLODBypassesCache(t *testing.T) {
	srv := testServer(t)
	// Settle and cache the full rendering.
	settle(t, srv.URL)
	var full graphJSON
	getJSON(t, srv.URL+"/api/graph?steps=0", &full) // cache-priming hit
	resp, err := http.Get(srv.URL + "/api/graph?steps=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("ETag") == "" {
		t.Fatal("full graph response not cached; cannot test bypass")
	}

	// The LOD request must produce an LOD body, not the cached full form.
	var lod lodJSON
	getJSON(t, srv.URL+"/api/graph?steps=0&viewport=1e7,1e7,1.1e7,1.1e7&zoom=1", &lod)
	if len(lod.Nodes) != 0 || len(lod.Groups) == 0 {
		t.Errorf("LOD response wrong shape: %d nodes, %d groups", len(lod.Nodes), len(lod.Groups))
	}

	// And the full-graph cache must still serve afterwards.
	resp2, err := http.Get(srv.URL + "/api/graph?steps=0")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.Header.Get("ETag") == "" {
		t.Error("full graph cache lost after a LOD request")
	}

	// Malformed viewports are rejected.
	for _, q := range []string{"viewport=1,2,3", "viewport=5,5,1,1", "viewport=a,b,c,d", "viewport=0,0,1,1&zoom=-2"} {
		resp, err := http.Get(srv.URL + "/api/graph?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func floatQuad(a, b, c, d float64) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(a) + "," + f(b) + "," + f(c) + "," + f(d)
}
