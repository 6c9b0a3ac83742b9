package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"viva/internal/core"
	"viva/internal/obs"
	"viva/internal/trace"
)

func testView(t testing.TB) *core.View {
	t.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	tr.MustDeclareResource("c1", trace.TypeGroup, "root")
	tr.MustDeclareResource("h1", trace.TypeHost, "c1")
	tr.MustDeclareResource("h2", trace.TypeHost, "c1")
	tr.MustDeclareResource("l1", trace.TypeLink, "root")
	for _, args := range [][3]any{
		{"h1", trace.MetricPower, 100.0},
		{"h2", trace.MetricPower, 50.0},
		{"l1", trace.MetricBandwidth, 1000.0},
		{"h1", trace.MetricUsage, 60.0},
	} {
		if err := tr.Set(0, args[0].(string), args[1].(string), args[2].(float64)); err != nil {
			t.Fatal(err)
		}
	}
	tr.MustDeclareEdge("h1", "l1")
	tr.MustDeclareEdge("h2", "l1")
	tr.SetEnd(10)
	v, err := core.NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(New(testView(t)).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// settle steps the served view until it settles, which the ETag of its
// now cached /api/graph payload shows, and returns that ETag.
func settle(t *testing.T, base string) string {
	t.Helper()
	for i := 0; i < 200; i++ {
		resp, err := http.Get(base + "/api/graph?steps=50")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if etag := resp.Header.Get("ETag"); etag != "" {
			return etag
		}
	}
	t.Fatal("layout never settled: no ETag on /api/graph responses")
	return ""
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func TestIndexServed(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "<canvas") {
		t.Error("UI page lacks canvas")
	}
	// Unknown paths 404.
	resp2, err := http.Get(srv.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d", resp2.StatusCode)
	}
}

func TestGraphEndpoint(t *testing.T) {
	srv := testServer(t)
	var g graphJSON
	getJSON(t, srv.URL+"/api/graph?steps=3", &g)
	if len(g.Nodes) != 3 {
		t.Fatalf("nodes = %d, want 3", len(g.Nodes))
	}
	if len(g.Edges) != 2 {
		t.Errorf("edges = %d, want 2", len(g.Edges))
	}
	if g.Window[1] != 10 {
		t.Errorf("window = %v", g.Window)
	}
	for _, n := range g.Nodes {
		if n.Shape == "" || n.Color == "" || n.Size <= 0 {
			t.Errorf("node %s incomplete: %+v", n.ID, n)
		}
	}
	// Bad steps rejected.
	resp, err := http.Get(srv.URL + "/api/graph?steps=abc")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad steps status = %d", resp.StatusCode)
	}
}

func TestMetaEndpoint(t *testing.T) {
	srv := testServer(t)
	var m metaJSON
	getJSON(t, srv.URL+"/api/meta", &m)
	if m.MaxDepth != 2 {
		t.Errorf("maxDepth = %d, want 2", m.MaxDepth)
	}
	if len(m.Groups) != 2 { // root, c1
		t.Errorf("groups = %v", m.Groups)
	}
	if len(m.Metrics) == 0 || len(m.Types) == 0 {
		t.Error("metrics/types empty")
	}
}

func TestSVGEndpoint(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/svg")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("content type = %s", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "<svg") {
		t.Error("no SVG content")
	}
}

func TestSliceEndpoint(t *testing.T) {
	srv := testServer(t)
	if resp := postJSON(t, srv.URL+"/api/slice", map[string]float64{"start": 1, "end": 5}); resp.StatusCode != http.StatusOK {
		t.Errorf("valid slice status = %d", resp.StatusCode)
	}
	var g graphJSON
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	if g.Slice != [2]float64{1, 5} {
		t.Errorf("slice = %v", g.Slice)
	}
	if resp := postJSON(t, srv.URL+"/api/slice", map[string]float64{"start": 5, "end": 1}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid slice status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/shift", map[string]float64{"dt": 2}); resp.StatusCode != http.StatusOK {
		t.Errorf("shift status = %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	if g.Slice != [2]float64{3, 7} {
		t.Errorf("shifted slice = %v", g.Slice)
	}
}

func TestAggregationEndpoints(t *testing.T) {
	srv := testServer(t)
	if resp := postJSON(t, srv.URL+"/api/aggregate", map[string]string{"group": "c1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status = %d", resp.StatusCode)
	}
	var g graphJSON
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	if len(g.Nodes) != 2 { // c1 square + l1 diamond
		t.Errorf("nodes after aggregate = %d, want 2", len(g.Nodes))
	}
	if resp := postJSON(t, srv.URL+"/api/disaggregate", map[string]string{"group": "c1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("disaggregate status = %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	if len(g.Nodes) != 3 {
		t.Errorf("nodes after disaggregate = %d, want 3", len(g.Nodes))
	}
	if resp := postJSON(t, srv.URL+"/api/aggregate", map[string]string{"group": "ghost"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad group status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/level", map[string]int{"depth": 0}); resp.StatusCode != http.StatusOK {
		t.Errorf("level status = %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	if len(g.Nodes) != 2 {
		t.Errorf("nodes at level 0 = %d, want 2", len(g.Nodes))
	}
}

func TestScaleAndParamsEndpoints(t *testing.T) {
	srv := testServer(t)
	if resp := postJSON(t, srv.URL+"/api/scale", map[string]any{"type": "host", "factor": 2.0}); resp.StatusCode != http.StatusOK {
		t.Errorf("scale status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/scale", map[string]any{"type": "ghost", "factor": 2.0}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scale status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/params", map[string]float64{"Charge": 2000}); resp.StatusCode != http.StatusOK {
		t.Errorf("params status = %d", resp.StatusCode)
	}
	var g graphJSON
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	if g.Params.Charge != 2000 {
		t.Errorf("charge = %g, want 2000", g.Params.Charge)
	}
	// Omitted fields keep their previous value.
	if g.Params.Damping == 0 {
		t.Error("damping reset by partial params update")
	}
	if resp := postJSON(t, srv.URL+"/api/params", map[string]float64{"Damping": 1.5}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid damping status = %d", resp.StatusCode)
	}
}

func TestMoveEndpoints(t *testing.T) {
	srv := testServer(t)
	var g graphJSON
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	id := g.Nodes[0].ID
	if resp := postJSON(t, srv.URL+"/api/move", map[string]any{"id": id, "x": 5.0, "y": 6.0, "pin": true}); resp.StatusCode != http.StatusOK {
		t.Fatalf("move status = %d", resp.StatusCode)
	}
	getJSON(t, srv.URL+"/api/graph?steps=0", &g)
	for _, n := range g.Nodes {
		if n.ID == id && (!n.Pinned || n.X != 5 || n.Y != 6) {
			t.Errorf("node after pin-move: %+v", n)
		}
	}
	if resp := postJSON(t, srv.URL+"/api/unpin", map[string]string{"id": id}); resp.StatusCode != http.StatusOK {
		t.Errorf("unpin status = %d", resp.StatusCode)
	}
	if resp := postJSON(t, srv.URL+"/api/move", map[string]any{"id": "ghost", "x": 0.0, "y": 0.0, "pin": false}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad move status = %d", resp.StatusCode)
	}
}

func TestNodeDetailEndpoint(t *testing.T) {
	srv := testServer(t)
	// Aggregate so a node has several members.
	if resp := postJSON(t, srv.URL+"/api/aggregate", map[string]string{"group": "c1"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("aggregate status = %d", resp.StatusCode)
	}
	var d struct {
		ID      string   `json:"id"`
		Count   int      `json:"count"`
		Value   float64  `json:"value"`
		Members []string `json:"members"`
		Stats   struct {
			Stddev float64 `json:"stddev"`
			Median float64 `json:"median"`
		} `json:"sizeStats"`
	}
	getJSON(t, srv.URL+"/api/node?id=c1/host", &d)
	if d.Count != 2 || d.Value != 150 {
		t.Errorf("detail = %+v", d)
	}
	if len(d.Members) != 2 || d.Members[0] != "h1" {
		t.Errorf("members = %v", d.Members)
	}
	if d.Stats.Median != 75 || d.Stats.Stddev != 25 {
		t.Errorf("stats = %+v", d.Stats)
	}
	resp, err := http.Get(srv.URL + "/api/node?id=ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown node status = %d", resp.StatusCode)
	}
}

func TestMalformedJSONRejected(t *testing.T) {
	srv := testServer(t)
	for _, ep := range []string{"/api/slice", "/api/aggregate", "/api/level", "/api/scale", "/api/params", "/api/move", "/api/unpin", "/api/shift", "/api/disaggregate"} {
		resp, err := http.Post(srv.URL+ep, "application/json", strings.NewReader("{bad"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s malformed JSON status = %d", ep, resp.StatusCode)
		}
	}
}

// TestGraphCacheETag pins the settled-payload cache: with the layout held
// still (steps=0), two polls return identical bytes and the same ETag,
// If-None-Match collapses to 304, and any mutation invalidates the cache.
func TestGraphCacheETag(t *testing.T) {
	srv := testServer(t)
	url := srv.URL + "/api/graph?steps=0"

	get := func(etag string) (int, string, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("ETag"), body
	}

	code1, tag1, body1 := get("")
	if code1 != http.StatusOK || tag1 == "" {
		t.Fatalf("first poll: code %d, etag %q", code1, tag1)
	}
	code2, tag2, body2 := get("")
	if code2 != http.StatusOK || tag2 != tag1 || !bytes.Equal(body1, body2) {
		t.Fatalf("second poll not served from cache: code %d, etag %q vs %q", code2, tag2, tag1)
	}
	if code3, _, _ := get(tag1); code3 != http.StatusNotModified {
		t.Fatalf("If-None-Match poll: code %d, want 304", code3)
	}

	// A mutation must invalidate the cached payload.
	resp, err := http.Post(srv.URL+"/api/shift", "application/json", strings.NewReader(`{"dt":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	code4, _, body4 := get(tag1)
	if code4 != http.StatusOK {
		t.Fatalf("poll after shift: code %d, want 200", code4)
	}
	var g struct {
		Slice [2]float64 `json:"slice"`
	}
	if err := json.Unmarshal(body4, &g); err != nil {
		t.Fatal(err)
	}
	if g.Slice[0] != 1 {
		t.Errorf("slice after shift = %v, want start 1", g.Slice)
	}
}

func TestHandlerPanicReturns500(t *testing.T) {
	srv := httptest.NewServer(recoverMiddleware(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})))
	t.Cleanup(srv.Close)
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body["error"], "boom") {
		t.Errorf("error body %q does not name the panic", body["error"])
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	srv := testServer(t)
	big := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	resp, err := http.Post(srv.URL+"/api/slice", "application/json", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestInFlightRequestFinishesDuringShutdown(t *testing.T) {
	s := New(testView(t))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	// Stall the handler on the view mutex so the request is still in
	// flight when the shutdown starts.
	s.mu.Lock()
	type result struct {
		status int
		body   []byte
		err    error
	}
	resc := make(chan result, 1)
	go func() {
		resp, err := http.Get("http://" + ln.Addr().String() + "/api/graph")
		if err != nil {
			resc <- result{err: err}
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		resc <- result{status: resp.StatusCode, body: b, err: err}
	}()
	time.Sleep(100 * time.Millisecond) // request reaches the stalled handler
	cancel()
	time.Sleep(50 * time.Millisecond) // shutdown starts draining
	s.mu.Unlock()

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight request failed: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", r.status)
	}
	if !bytes.Contains(r.body, []byte(`"nodes"`)) || !bytes.Contains(r.body, []byte(`"avail"`)) {
		t.Errorf("in-flight response truncated or missing fields: %.120s", r.body)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after graceful shutdown", err)
	}
}

// TestSettledScrubServesCache pins the settled state through HTTP: on a
// settled view a scrub frame takes no layout step and caches its bytes,
// so the idle poll after it is a byte-cache hit and the conditional
// request a 304.
func TestSettledScrubServesCache(t *testing.T) {
	srv := testServer(t)
	settle(t, srv.URL)
	steps := obs.Default.Counter("viva_layout_steps_total", "")
	steps0, hits0 := steps.Value(), obsCacheHits.Value()

	resp := postJSON(t, srv.URL+"/api/slice", map[string]float64{"start": 1, "end": 4})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/slice = %d", resp.StatusCode)
	}
	get := func(etag string) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, srv.URL+"/api/graph?steps=5", nil)
		if err != nil {
			t.Fatal(err)
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	frame, frameBody := get("")
	etag := frame.Header.Get("ETag")
	if frame.StatusCode != http.StatusOK || etag == "" {
		t.Fatalf("scrub frame: status %d, ETag %q; want 200 with an ETag", frame.StatusCode, etag)
	}
	poll, pollBody := get("")
	if poll.Header.Get("ETag") != etag || !bytes.Equal(pollBody, frameBody) {
		t.Error("idle poll did not serve the scrub frame's bytes")
	}
	if got := obsCacheHits.Value() - hits0; got != 1 {
		t.Errorf("cache hits after the idle poll = %d, want 1", got)
	}
	if cond, _ := get(etag); cond.StatusCode != http.StatusNotModified {
		t.Errorf("conditional poll = %d, want 304", cond.StatusCode)
	}
	if d := steps.Value() - steps0; d != 0 {
		t.Errorf("a settled scrub took %d layout steps", d)
	}
}

// A frame that moves bodies drops the cached payload, even one that
// answers in the level-of-detail form: the next request that steps
// nothing renders the moved picture instead of serving stale bytes.
func TestMovingFrameDropsCache(t *testing.T) {
	for _, moving := range []string{"steps=5", "steps=5&viewport=-1e6,-1e6,1e6,1e6"} {
		t.Run(moving, func(t *testing.T) {
			srv := testServer(t)
			get := func(q string) (string, []byte) {
				t.Helper()
				resp, err := http.Get(srv.URL + "/api/graph?" + q)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET ?%s = %d", q, resp.StatusCode)
				}
				return resp.Header.Get("ETag"), body
			}
			// The fresh view has not converged, but a request that steps
			// nothing moves no body, so its bytes are cached.
			tag, still := get("steps=0")
			if tag == "" {
				t.Fatal("a request that steps nothing was not cached")
			}
			if tag, _ := get(moving); tag != "" {
				t.Fatalf("the view settled in one frame (ETag %s); nothing moves to test", tag)
			}
			hits0 := obsCacheHits.Value()
			tag2, after := get("steps=0")
			if got := obsCacheHits.Value() - hits0; got != 0 || tag2 == tag || bytes.Equal(after, still) {
				t.Errorf("after a moving frame: %d cache hits, ETag %s (was %s), same bytes %v; want a fresh rendering",
					got, tag2, tag, bytes.Equal(after, still))
			}
		})
	}
}
