package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"viva/internal/obs"
	"viva/internal/traceio"
)

// TestMetricsEndpoint checks that /metrics serves Prometheus text with the
// families the pipeline is instrumented with, after at least one graph
// request has exercised the aggregation/build/layout path.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	if _, err := http.Get(srv.URL + "/api/graph"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"viva_vizgraph_builds_total",
		"viva_layout_steps_total",
		"viva_http_requests_total",
		"viva_http_request_seconds",
		"viva_server_graph_cache_misses_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// Every non-comment line must parse as "name value" or
	// "name{labels} value": a crude well-formedness check.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestObsFramesEndpoint checks that a graph request records a frame with
// per-stage timings retrievable from /api/obs/frames.
func TestObsFramesEndpoint(t *testing.T) {
	srv := testServer(t)
	// NewView builds the initial graph eagerly, so dirty the view first:
	// the next /api/graph then rebuilds inside its frame, firing the
	// aggregate and build spans alongside layout and render.
	if resp := postJSON(t, srv.URL+"/api/slice", map[string]float64{"start": 1, "end": 5}); resp.StatusCode != http.StatusOK {
		t.Fatalf("slice status = %d", resp.StatusCode)
	}
	if _, err := http.Get(srv.URL + "/api/graph"); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Frames []struct {
			Seq    uint64  `json:"seq"`
			DurMs  float64 `json:"dur_ms"`
			Stages []struct {
				Stage string `json:"stage"`
				Ns    int64  `json:"ns"`
				Count int64  `json:"count"`
			} `json:"stages"`
		} `json:"frames"`
	}
	getJSON(t, srv.URL+"/api/obs/frames", &out)
	if len(out.Frames) == 0 {
		t.Fatal("no frames recorded after /api/graph request")
	}
	last := out.Frames[len(out.Frames)-1]
	if last.DurMs <= 0 {
		t.Errorf("frame dur_ms = %g, want > 0", last.DurMs)
	}
	stages := map[string]bool{}
	for _, st := range last.Stages {
		if st.Count <= 0 || st.Ns < 0 {
			t.Errorf("stage %s: count=%d ns=%d", st.Stage, st.Count, st.Ns)
		}
		stages[st.Stage] = true
	}
	for _, want := range []string{"aggregate", "build", "layout", "render"} {
		if !stages[want] {
			t.Errorf("frame missing stage %q (got %v)", want, stages)
		}
	}

	// ?max=1 caps the slice.
	getJSON(t, srv.URL+"/api/obs/frames?max=1", &out)
	if len(out.Frames) > 1 {
		t.Errorf("?max=1 returned %d frames", len(out.Frames))
	}
}

// TestGraphCacheCounters checks that repeat and conditional requests land
// in the hit/304 counters used for the shutdown summary.
func TestGraphCacheCounters(t *testing.T) {
	srv := testServer(t)
	hits0, notMod0, misses0 := obsCacheHits.Value(), obsCache304.Value(), obsCacheMisses.Value()

	// The ETag appears once the layout settles and the payload is cached.
	etag := settle(t, srv.URL)
	if got := obsCacheMisses.Value() - misses0; got < 1 {
		t.Errorf("cache misses while settling = %d, want >= 1", got)
	}

	if _, err := http.Get(srv.URL + "/api/graph"); err != nil {
		t.Fatal(err)
	}
	if got := obsCacheHits.Value() - hits0; got != 1 {
		t.Errorf("cache hits after repeat request = %d, want 1", got)
	}

	req, _ := http.NewRequest("GET", srv.URL+"/api/graph", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional request status = %d, want 304", resp2.StatusCode)
	}
	if got := obsCache304.Value() - notMod0; got != 1 {
		t.Errorf("304 counter after conditional request = %d, want 1", got)
	}
}

// TestPprofGated checks /debug/pprof/ is absent by default and mounted
// when EnablePprof is set.
func TestPprofGated(t *testing.T) {
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without EnablePprof")
	}

	s := New(testView(t))
	s.EnablePprof = true
	srv2 := httptest.NewServer(s.Handler())
	t.Cleanup(srv2.Close)
	resp2, err := http.Get(srv2.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d, want 200", resp2.StatusCode)
	}
	if !strings.Contains(string(body), "profile") {
		t.Error("pprof index does not mention profiles")
	}
}

// sanity: the frames payload round-trips through encoding/json with the
// field names the UI and CI smoke rely on.
func TestFramesJSONShape(t *testing.T) {
	b, err := json.Marshal(framesJSON{Frames: obs.Frames.Snapshot(1)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"frames"`) {
		t.Errorf("frames payload = %s, want top-level \"frames\" key", b)
	}
}

// TestMetricsIngestFamilies checks that after a trace load through the
// ingestion pipeline, /metrics exposes the viva_ingest_* counters with
// the bytes/lines/events the load consumed.
func TestMetricsIngestFamilies(t *testing.T) {
	events0 := ingestCounterValue(t, nil, "viva_ingest_events_total")
	if _, err := traceio.Read(strings.NewReader("resource h host -\nset 0 h power 5\nset 1 h power 7\nend 2\n")); err != nil {
		t.Fatal(err)
	}
	srv := testServer(t)
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"viva_ingest_bytes_total",
		"viva_ingest_lines_total",
		"viva_ingest_events_total",
	} {
		if !strings.Contains(text, "# TYPE "+family+" counter") {
			t.Errorf("/metrics missing counter family %s", family)
		}
	}
	if got := ingestCounterValue(t, body, "viva_ingest_events_total"); got < events0+4 {
		t.Errorf("viva_ingest_events_total = %d, want >= %d after loading 4 events", got, events0+4)
	}
	if got := ingestCounterValue(t, body, "viva_ingest_bytes_total"); got == 0 {
		t.Error("viva_ingest_bytes_total = 0 after a load")
	}
}

// ingestCounterValue extracts a counter's value from Prometheus text; with
// nil exposition it snapshots the live registry through WritePrometheus.
func ingestCounterValue(t *testing.T, exposition []byte, name string) uint64 {
	t.Helper()
	if exposition == nil {
		var b strings.Builder
		if err := obs.Default.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		exposition = []byte(b.String())
	}
	for _, line := range strings.Split(string(exposition), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseUint(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad counter line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("counter %s not found in exposition", name)
	return 0
}
