package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"viva/internal/obs"
	"viva/internal/stream"
)

func TestHealthz(t *testing.T) {
	srv := testServer(t)
	var out map[string]string
	getJSON(t, srv.URL+"/healthz", &out)
	if out["status"] != "ok" {
		t.Fatalf("healthz = %v", out)
	}
}

type readyzJSON struct {
	Status string `json:"status"`
	Checks []struct {
		Name  string `json:"name"`
		OK    bool   `json:"ok"`
		Error string `json:"error,omitempty"`
	} `json:"checks"`
}

func TestReadyzNoStream(t *testing.T) {
	srv := testServer(t)
	var out readyzJSON
	getJSON(t, srv.URL+"/readyz", &out)
	if out.Status != "ready" {
		t.Fatalf("readyz = %+v", out)
	}
	if len(out.Checks) == 0 || out.Checks[0].Name != "view" || !out.Checks[0].OK {
		t.Fatalf("view check missing or failing: %+v", out.Checks)
	}
}

func TestReadyzStreamLifecycle(t *testing.T) {
	srv, st, _ := liveServer(t, coldTrace(t, 2, 50), 0, stream.Config{Tick: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Before the publisher runs, the server must refuse traffic.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var out readyzJSON
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || out.Status != "not ready" {
		t.Fatalf("pre-start readyz = %d %+v", resp.StatusCode, out)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- st.Run(ctx) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var ready readyzJSON
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err == nil && resp.StatusCode == http.StatusOK && ready.Status == "ready" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready: %d %+v", resp.StatusCode, ready)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-done
}

func TestReadyzCustomCheck(t *testing.T) {
	s := New(testView(t))
	fail := true
	s.AddReadyCheck("store", func() error {
		if fail {
			return errors.New("store not opened")
		}
		return nil
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing custom check: status %d, want 503", resp.StatusCode)
	}
	fail = false
	var out readyzJSON
	getJSON(t, ts.URL+"/readyz", &out)
	if out.Status != "ready" {
		t.Fatalf("readyz after check passes = %+v", out)
	}
}

func TestFlightRecEndpoint(t *testing.T) {
	srv := testServer(t)
	obs.Flight.Record(obs.FlightShed, 99, 7, 0)
	var out struct {
		Events []obs.FlightEvent `json:"events"`
		Total  uint64            `json:"total"`
	}
	getJSON(t, srv.URL+"/api/obs/flightrec", &out)
	if len(out.Events) == 0 || out.Total == 0 {
		t.Fatalf("flightrec empty after a recorded event: %+v", out)
	}
	found := false
	for _, ev := range out.Events {
		if ev.Kind == "shed" && ev.Tick == 99 && ev.A == 7 {
			found = true
		}
	}
	if !found {
		t.Fatalf("recorded shed event not in dump: %+v", out.Events)
	}
}

// TestObsDebugUnderLoad asserts the debug bundle stays well-formed while
// the live pipeline publishes and clients hammer the API — the exact
// moment an operator would pull it.
func TestObsDebugUnderLoad(t *testing.T) {
	srv, st, _ := liveServer(t, coldTrace(t, 4, 5000), 2000, stream.Config{Tick: time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- st.Run(ctx) }()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				resp, err := http.Get(ts.URL + "/api/graph")
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}
	for i := 0; i < 5; i++ {
		var bundle struct {
			Goroutines int `json:"goroutines"`
			Heap       struct {
				AllocBytes uint64 `json:"alloc_bytes"`
			} `json:"heap"`
			Metrics []obs.MetricSnapshot `json:"metrics"`
			Flight  struct {
				Events []obs.FlightEvent `json:"events"`
			} `json:"flight"`
			Stream *struct {
				Ticks int `json:"ticks"`
			} `json:"stream"`
		}
		getJSON(t, ts.URL+"/api/obs/debug", &bundle)
		if bundle.Goroutines <= 0 {
			t.Fatalf("bundle %d: goroutines = %d", i, bundle.Goroutines)
		}
		if bundle.Heap.AllocBytes == 0 {
			t.Fatalf("bundle %d: empty heap stats", i)
		}
		if len(bundle.Metrics) < 30 {
			t.Fatalf("bundle %d: only %d metrics", i, len(bundle.Metrics))
		}
		if bundle.Stream == nil {
			t.Fatalf("bundle %d: no stream section with a stream attached", i)
		}
	}
	wg.Wait()
	cancel()
	<-done
}

// TestSelfStreamSSE closes the visualization loop: pipeline spans
// fanned out to the feed come back out of /api/stream/self as live trace
// frames carrying per-stage series.
func TestSelfStreamSSE(t *testing.T) {
	feed := obs.NewSpanFeed(1024)
	ring := obs.NewRing(1)
	ring.Attach(feed)
	selfSt, err := stream.New(stream.NewSelfSource(feed), stream.Config{Tick: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	s := New(testView(t))
	s.SetSelfStream(selfSt)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- selfSt.Run(ctx) }()

	// A fake pipeline: emit spans while a client watches the meta-trace.
	emitCtx, emitCancel := context.WithCancel(context.Background())
	defer emitCancel()
	go func() {
		for i := 0; ; i++ {
			select {
			case <-emitCtx.Done():
				return
			case <-time.After(time.Millisecond):
				ring.Emit(obs.StageApply, int64(1000*(i+1)))
				ring.Emit(obs.StageEncode, int64(500*(i+1)))
			}
		}
	}()

	resp, err := http.Get(ts.URL + "/api/stream/self")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	sawStage := false
	for i := 0; i < 20 && !sawStage; i++ {
		ev, err := readEvent(br)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Series []struct {
				Resource string  `json:"resource"`
				Metric   string  `json:"metric"`
				Mean     float64 `json:"mean"`
			} `json:"series"`
			Resources []struct {
				Name string `json:"name"`
			} `json:"resources"`
		}
		if err := json.Unmarshal([]byte(ev.data), &f); err != nil {
			t.Fatalf("event %d: bad data: %v", i, err)
		}
		for _, s := range f.Series {
			if s.Resource == "apply" && s.Metric == "span_ms" && s.Mean > 0 {
				sawStage = true
			}
		}
	}
	if !sawStage {
		t.Fatal("no apply/span_ms series surfaced on /api/stream/self")
	}
	emitCancel()
	cancel()
	<-done
}

// TestSelfStreamStaysOutOfFanout serves a frozen trace with the
// self-stream attached to the process fan-out, as vivaserve -selfstream
// does. The self-stream's own publisher hops and its SSE writes must not
// reach the fan-out: otherwise they feed back into the meta-trace as
// live-hop resources and mix into the stage histograms, although no
// live stream runs.
func TestSelfStreamStaysOutOfFanout(t *testing.T) {
	feed := obs.NewSpanFeed(4096)
	obs.Frames.Attach(feed)
	defer obs.Frames.Detach(feed)
	selfSt, err := stream.New(stream.NewSelfSource(feed), stream.Config{Tick: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	intake0 := stageCount(t, "intake")
	s := New(testView(t))
	s.SetSelfStream(selfSt)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- selfSt.Run(ctx) }()

	resp, err := http.Get(ts.URL + "/api/stream/self")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	seen := map[string]bool{}
	for i := 0; i < 40 && !(seen["frame"] && i >= 20); i++ {
		if i%5 == 0 {
			// A request-path frame: its stages are what the meta-trace
			// is for.
			r, err := http.Get(ts.URL + "/api/graph?steps=1")
			if err != nil {
				t.Fatal(err)
			}
			r.Body.Close()
		}
		ev, err := readEvent(br)
		if err != nil {
			t.Fatal(err)
		}
		var f struct {
			Series []struct {
				Resource string `json:"resource"`
			} `json:"series"`
			Resources []struct {
				Name string `json:"name"`
			} `json:"resources"`
		}
		if err := json.Unmarshal([]byte(ev.data), &f); err != nil {
			t.Fatalf("event %d: bad data: %v", i, err)
		}
		for _, r := range f.Resources {
			seen[r.Name] = true
		}
		for _, s := range f.Series {
			seen[s.Resource] = true
		}
	}
	if !seen["frame"] {
		t.Fatalf("the request-path frame never reached /api/stream/self (saw %v)", seen)
	}
	for _, hop := range []string{"intake", "apply", "window", "encode", "fanout", "write"} {
		if seen[hop] {
			t.Errorf("/api/stream/self declares the live hop %q with no live stream running", hop)
		}
	}
	if got := stageCount(t, "intake") - intake0; got != 0 {
		t.Errorf("viva_stage_seconds_count{stage=\"intake\"} rose by %d with no live stream running", got)
	}
	cancel()
	<-done
}

// stageCount reads a stage histogram's observation count.
func stageCount(t *testing.T, stage string) uint64 {
	t.Helper()
	for _, m := range obs.Default.Snapshot() {
		if m.Name == `viva_stage_seconds{stage="`+stage+`"}` {
			return m.Count
		}
	}
	t.Fatalf("no histogram for stage %s", stage)
	return 0
}
