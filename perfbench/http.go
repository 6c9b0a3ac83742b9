package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"viva/internal/core"
	"viva/internal/obs"
	"viva/internal/server"
	"viva/internal/stream"
)

// spanHeader carries the client's span id to the server-side middleware,
// so the server span of a request becomes the child of the client's.
const spanHeader = "X-Perfbench-Span"

// served is a viva server on a loopback listener, wrapped so that a
// traced run can time every handler call and read back the stage times
// the program's frame ring records for it.
type served struct {
	srv  *server.Server
	view *core.View
	url  string
	hs   *http.Server
	done chan error

	mu sync.Mutex // guards the fields below, written by handlers
	t  *tracer
	// Server-side per-request timings of the traced pass, in ms.
	mutate, graph, layout, encode, lod samples
}

// serve starts a server over v (with st attached when non-nil) on an
// ephemeral loopback port.
func serve(v *core.View, st *stream.Stream) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(v), view: v, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	if st != nil {
		s.srv.SetStream(st)
	}
	s.hs = &http.Server{Handler: s.middleware(s.srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the server and waits until it has returned.
func (s *served) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil {
		_ = s.hs.Close() // a stream handler outlived the grace period
	}
	<-s.done
}

// setTracer switches server-side timing on (t non-nil) or off and resets
// the samples of the previous pass.
func (s *served) setTracer(t *tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.t = t
	s.mutate, s.graph, s.layout, s.encode, s.lod = nil, nil, nil, nil, nil
}

// middleware times each handler call as a server span. For /api/graph
// it also reads back the frame the handler recorded in the program's
// frame ring: aggregate and build are View.Graph's Eq. 1 and vizgraph
// passes, layout the StepLayout steps, render the JSON encode. Whatever
// else a level-of-detail request spends is the vizgraph LOD build.
func (s *served) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s.mu.Lock()
		t := s.t
		s.mu.Unlock()
		if t == nil {
			next.ServeHTTP(w, req)
			return
		}
		parent, _ := strconv.Atoi(req.Header.Get(spanHeader))
		sp := t.start("server."+req.Method+" "+req.URL.Path, parent)
		seq := newestFrame()
		t0 := time.Now()
		next.ServeHTTP(w, req)
		took := time.Since(t0)
		t.end(sp)

		s.mu.Lock()
		defer s.mu.Unlock()
		switch {
		case req.Method == http.MethodPost:
			s.mutate = append(s.mutate, float64(took)/1e6)
		case req.URL.Path == "/api/graph":
			f, ok := frameAfter(seq)
			if !ok {
				return // served from the settled-payload cache: no frame
			}
			d := func(stage string) time.Duration { return time.Duration(f[stage].Ns) }
			agg, build, lay, enc := d("aggregate"), d("build"), d("layout"), d("render")
			names := []string{"aggregation.Stats", "vizgraph.Build", "layout.StepLayout", "server.Encode"}
			durs := []time.Duration{agg, build, lay, enc}
			if req.URL.Query().Get("viewport") != "" {
				lod := max(0, took-agg-build-lay-enc)
				s.lod = append(s.lod, float64(lod)/1e6)
				names, durs = append(names, "vizgraph.BuildLOD"), append(durs, lod)
			}
			t.derive(sp, names, durs)
			if agg+build > 0 {
				s.graph = append(s.graph, float64(agg+build)/1e6)
			}
			if steps := f["layout"].Count; steps > 0 {
				s.layout = append(s.layout, float64(lay)/1e6/float64(steps))
			}
			s.encode = append(s.encode, float64(enc)/1e6)
		}
	})
}

func newestFrame() uint64 {
	if f := obs.Frames.Snapshot(1); len(f) == 1 {
		return f[0].Seq
	}
	return 0
}

// frameAfter returns the stage timings of the newest frame if it began
// after frame seq.
func frameAfter(seq uint64) (map[string]obs.StageTiming, bool) {
	f := obs.Frames.Snapshot(1)
	if len(f) != 1 || f[0].Seq <= seq {
		return nil, false
	}
	out := make(map[string]obs.StageTiming, len(f[0].Stages))
	for _, st := range f[0].Stages {
		out[st.Stage] = st
	}
	return out, true
}

// client is one browser tab: a single keep-alive connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request under a client span and returns the whole body.
func (c *client) do(t *tracer, parent int, method, path string, body []byte) ([]byte, error) {
	sp := t.start("http."+method+" "+pathOnly(path), parent)
	defer t.end(sp)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if sp != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(sp))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return b, fmt.Errorf("status %d from %s %s: %.200s", resp.StatusCode, method, path, b)
	}
	return b, nil
}

func pathOnly(p string) string {
	p, _, _ = strings.Cut(p, "?")
	return p
}
