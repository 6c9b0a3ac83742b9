package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"viva/internal/aggregation"
	"viva/internal/core"
	"viva/internal/layout"
	"viva/internal/trace"
	"viva/internal/vizgraph"
)

// The reference wire forms: the structs /api/graph was marshalled from
// before the append encoder. The encoder must produce exactly
// json.Marshal of these, built from the same view state; the tests below
// and FuzzGraphQuery hold it to that. Their empty lists are non-nil, so
// they marshal as [].

type nodeJSON struct {
	ID       string        `json:"id"`
	Group    string        `json:"group"`
	Parent   string        `json:"parent"`
	Type     string        `json:"type"`
	Label    string        `json:"label"`
	Shape    string        `json:"shape"`
	Color    string        `json:"color"`
	Size     float64       `json:"size"`
	Fill     float64       `json:"fill"`
	Avail    float64       `json:"avail"`
	Count    int           `json:"count"`
	Value    float64       `json:"value"`
	X        float64       `json:"x"`
	Y        float64       `json:"y"`
	Pinned   bool          `json:"pinned"`
	Leaf     bool          `json:"leaf"`
	Segments []segmentJSON `json:"segments,omitempty"`
}

type segmentJSON struct {
	Category string  `json:"category"`
	Fraction float64 `json:"fraction"`
	Color    string  `json:"color"`
}

type edgeJSON struct {
	From string `json:"from"`
	To   string `json:"to"`
	Mult int    `json:"mult"`
}

type graphJSON struct {
	Nodes  []nodeJSON    `json:"nodes"`
	Edges  []edgeJSON    `json:"edges"`
	Slice  [2]float64    `json:"slice"`
	Window [2]float64    `json:"window"`
	Params layout.Params `json:"params"`
	Moving float64       `json:"moving"`
}

type lodGroupJSON struct {
	ID      string  `json:"id"`
	Group   string  `json:"group"`
	Type    string  `json:"type"`
	Members int     `json:"members"`
	Count   int     `json:"count"`
	Value   float64 `json:"value"`
	Size    float64 `json:"size"`
	Fill    float64 `json:"fill"`
	Avail   float64 `json:"avail"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
}

type lodJSON struct {
	Nodes  []nodeJSON     `json:"nodes"`
	Groups []lodGroupJSON `json:"groups"`
	Edges  []edgeJSON     `json:"edges"`
	Depth  int            `json:"depth"`
	Slice  [2]float64     `json:"slice"`
	Window [2]float64     `json:"window"`
	Moving float64        `json:"moving"`
}

func refNode(tree *aggregation.Tree, n *vizgraph.Node, b *layout.Body) nodeJSON {
	tn := tree.Node(n.Group)
	nj := nodeJSON{
		ID: n.ID, Group: n.Group, Parent: tn.Parent, Type: n.Type,
		Label: n.Label, Shape: n.Shape.String(), Color: n.Color,
		Size: n.Size, Fill: n.Fill, Avail: n.Avail, Count: n.Count, Value: n.Value,
		X: b.Pos.X, Y: b.Pos.Y, Pinned: b.Pinned, Leaf: tn.IsEntity(),
	}
	for _, seg := range n.Segments {
		nj.Segments = append(nj.Segments, segmentJSON{Category: seg.Category, Fraction: seg.Fraction, Color: seg.Color})
	}
	return nj
}

func refEdges(edges []vizgraph.Edge) []edgeJSON {
	out := []edgeJSON{}
	for _, e := range edges {
		out = append(out, edgeJSON{From: e.From, To: e.To, Mult: e.Multiplicity})
	}
	return out
}

// refGraph is json.Marshal of the full payload for the view's current
// state and the given residual.
func refGraph(v *core.View, moving float64) ([]byte, error) {
	g, err := v.Graph()
	if err != nil {
		return nil, err
	}
	tree := v.Aggregator().Tree()
	out := graphJSON{Params: v.Layout().Params(), Moving: moving, Nodes: []nodeJSON{}, Edges: refEdges(g.Edges)}
	out.Slice = [2]float64{v.TimeSlice().Start, v.TimeSlice().End}
	ws, we := v.Source().Window()
	out.Window = [2]float64{ws, we}
	for _, n := range g.Nodes {
		if b := v.Layout().Body(n.ID); b != nil {
			out.Nodes = append(out.Nodes, refNode(tree, n, b))
		}
	}
	return json.Marshal(out)
}

// refLOD is json.Marshal of the level-of-detail payload.
func refLOD(v *core.View, vp vizgraph.Viewport, zoom, moving float64) ([]byte, error) {
	g, err := v.Graph()
	if err != nil {
		return nil, err
	}
	tree := v.Aggregator().Tree()
	lay := v.Layout()
	lod := vizgraph.BuildLOD(g, tree, func(id string) (float64, float64, bool) {
		b := lay.Body(id)
		if b == nil {
			return 0, 0, false
		}
		return b.Pos.X, b.Pos.Y, true
	}, vp, zoom)
	out := lodJSON{Depth: lod.Depth, Moving: moving, Nodes: []nodeJSON{}, Groups: []lodGroupJSON{}, Edges: refEdges(lod.Edges)}
	out.Slice = [2]float64{v.TimeSlice().Start, v.TimeSlice().End}
	ws, we := v.Source().Window()
	out.Window = [2]float64{ws, we}
	for _, n := range lod.Visible {
		if b := lay.Body(n.ID); b != nil {
			out.Nodes = append(out.Nodes, refNode(tree, n, b))
		}
	}
	for _, lg := range lod.Groups {
		out.Groups = append(out.Groups, lodGroupJSON{
			ID: lg.ID, Group: lg.Group, Type: lg.Type,
			Members: lg.Members, Count: lg.Count, Value: lg.Value,
			Size: lg.Size, Fill: lg.Fill, Avail: lg.Avail, X: lg.X, Y: lg.Y,
		})
	}
	return json.Marshal(out)
}

// oracleView is a view whose payloads exercise every encoder branch:
// names needing JSON escaping (HTML characters, U+2028, invalid UTF-8),
// hosts with two, one and no per-category fill segments, a link, and a
// cluster that can be aggregated into a non-leaf node.
func oracleView(t *testing.T) *core.View {
	t.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	tr.MustDeclareResource(`c<1>&"q"`, trace.TypeGroup, "root")
	tr.MustDeclareResource("h1", trace.TypeHost, `c<1>&"q"`)
	tr.MustDeclareResource("hôte\u2028\xff", trace.TypeHost, `c<1>&"q"`)
	tr.MustDeclareResource("h3", trace.TypeHost, "root")
	tr.MustDeclareResource("l1", trace.TypeLink, "root")
	for _, s := range []struct {
		r, m string
		v    float64
	}{
		{"h1", trace.MetricPower, 100}, {"hôte\u2028\xff", trace.MetricPower, 1e-7},
		{"h3", trace.MetricPower, 3e21}, {"l1", trace.MetricBandwidth, 1000},
		{"h1", trace.MetricUsage, 60}, {"h1", trace.MetricUsage + ":app", 40},
		{"h1", trace.MetricUsage + ":io<>", 20}, {"l1", trace.MetricTraffic, 1.0 / 3},
		{"h3", trace.MetricUsage, 1e20}, {"h3", trace.MetricUsage + ":app", 1e20},
	} {
		if err := tr.Set(0, s.r, s.m, s.v); err != nil {
			t.Fatal(err)
		}
	}
	tr.MustDeclareEdge("h1", "l1")
	tr.MustDeclareEdge("hôte\u2028\xff", "l1")
	tr.MustDeclareEdge("h3", "l1")
	tr.SetEnd(10)
	v, err := core.NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	v.Mapping().TypeMapping(trace.TypeHost).SegmentCategories = []string{"app", "io<>"}
	if err := v.SetScale(trace.TypeHost, 1); err != nil { // rebuild with the segments
		t.Fatal(err)
	}
	return v
}

// checkBody serves path and requires the body to equal want(view).
func checkBody(t *testing.T, h http.Handler, s *Server, path string, want func(*core.View) ([]byte, error)) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	ref, err := want(s.view)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.Body.Bytes(); !bytes.Equal(got, ref) {
		t.Fatalf("GET %s: encoder and reference differ\n got: %s\nwant: %s", path, got, ref)
	}
	return ref
}

// TestGraphEncoderMatchesReference pins the append encoder to
// json.Marshal of the reference structs on the full and LOD forms:
// escaped and plain strings, exponent-form floats, nodes with and
// without segments, pinned and free bodies, leaf and aggregated nodes,
// and empty lists.
func TestGraphEncoderMatchesReference(t *testing.T) {
	s := New(oracleView(t))
	h := s.Handler()
	full := func(v *core.View) ([]byte, error) { return refGraph(v, 0) }
	lodAt := func(vp vizgraph.Viewport, zoom float64) func(*core.View) ([]byte, error) {
		return func(v *core.View) ([]byte, error) { return refLOD(v, vp, zoom, 0) }
	}
	world := vizgraph.Viewport{MinX: -1e6, MinY: -1e6, MaxX: 1e6, MaxY: 1e6}
	away := vizgraph.Viewport{MinX: 1e7, MinY: 1e7, MaxX: 1.1e7, MaxY: 1.1e7}

	body := checkBody(t, h, s, "/api/graph?steps=0", full)
	for _, frag := range []string{`"segments":[{"category":"app"`, `"category":"io\u003c\u003e"`,
		`"value":1e-7`, `"value":3e+21`, `\u0026\"q\"`, `\u2028\ufffd`, `"leaf":true`} {
		if !strings.Contains(string(body), frag) {
			t.Errorf("full payload lacks %s: %s", frag, body)
		}
	}
	checkBody(t, h, s, "/api/graph?steps=0&viewport=-1e6,-1e6,1e6,1e6&zoom=1", lodAt(world, 1))  // no groups
	checkBody(t, h, s, "/api/graph?steps=0&viewport=1e7,1e7,1.1e7,1.1e7&zoom=1", lodAt(away, 1)) // no nodes

	// A pinned body, then an aggregated (non-leaf) cluster.
	post := func(path, body string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body.String())
		}
	}
	post("/api/move", `{"id":"h3/`+trace.TypeHost+`","x":12.5,"y":-0.1,"pin":true}`)
	if body = checkBody(t, h, s, "/api/graph?steps=0", full); !strings.Contains(string(body), `"pinned":true`) {
		t.Errorf("no pinned node in %s", body)
	}
	post("/api/aggregate", `{"group":"c<1>&\"q\""}`)
	if body = checkBody(t, h, s, "/api/graph?steps=0", full); !strings.Contains(string(body), `"leaf":false`) {
		t.Errorf("no aggregated node in %s", body)
	}
	half := vizgraph.Viewport{MinX: 0, MinY: -1e6, MaxX: 1e6, MaxY: 1e6}
	if body = checkBody(t, h, s, "/api/graph?steps=0&viewport=0,-1e6,1e6,1e6&zoom=1", lodAt(half, 1)); !strings.Contains(string(body), `"nodes":[{`) || !strings.Contains(string(body), `"groups":[{`) {
		t.Errorf("half viewport: want both visible nodes and coarse groups in %s", body)
	}
	checkBody(t, h, s, "/api/graph?steps=0&viewport=1e7,1e7,1.1e7,1.1e7&zoom=0.01", lodAt(away, 0.01))
}

// A trace with no declared edges must still send "edges":[], not null:
// the UI iterates graph.edges on every tick.
func TestGraphEmptyListsAreArrays(t *testing.T) {
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	tr.MustDeclareResource("h1", trace.TypeHost, "root")
	if err := tr.Set(0, "h1", trace.MetricPower, 1); err != nil {
		t.Fatal(err)
	}
	tr.SetEnd(1)
	v, err := core.NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(v).Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/graph?steps=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"edges":[]`) {
		t.Fatalf(`want "edges":[] in %s`, body)
	}
}
