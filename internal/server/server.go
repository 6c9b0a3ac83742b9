// Package server exposes a core.View over HTTP: a JSON API wrapping every
// interactive operation of the paper (time-slice selection, spatial
// aggregation, layout parameters, node dragging, per-type scales) plus an
// embedded HTML5 canvas front-end, so the visualization is explorable in a
// browser. This is the Go-era stand-in for VIVA's GTK user interface.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"log/slog"
	"math"
	"net"
	"net/http"
	"sync"
	"time"

	"viva/internal/aggregation"
	"viva/internal/core"
	"viva/internal/obs"
	"viva/internal/render"
	"viva/internal/stream"
	"viva/internal/vizgraph"
	"viva/internal/wire"
)

// Server wraps a View with a mutex so HTTP handlers can share it.
type Server struct {
	mu   sync.Mutex
	view *core.View

	// stream, when attached, adds the /api/stream SSE route over its
	// hub and ties hub shutdown into Serve's graceful stop. selfStream,
	// when attached, serves the pipeline's own stage spans as a live
	// trace on /api/stream/self — viva watching itself run.
	stream     *stream.Stream
	selfStream *stream.Stream

	// readyChecks are the named probes /readyz runs; see AddReadyCheck.
	readyChecks []readyCheck

	// EnablePprof mounts net/http/pprof under /debug/pprof/. Set it
	// before Handler; off by default because profiles expose internals.
	EnablePprof bool

	// RequestTimeout bounds one non-streaming request's write (and body
	// read) via per-request deadlines; zero means the requestTimeout
	// default. Streaming routes are exempt — they use rolling per-write
	// deadlines instead (StreamWriteTimeout).
	RequestTimeout time.Duration

	// StreamWriteTimeout is the per-write deadline on the SSE route
	// (default 5s): a peer that cannot drain one frame within it is
	// evicted. HeartbeatInterval paces the keep-alive comments that
	// detect dead peers between snapshots (default 15s).
	StreamWriteTimeout time.Duration
	HeartbeatInterval  time.Duration

	// Graph-payload cache: the last full /api/graph payload rendered
	// while no body moved, and the view generation it rendered; a frame
	// that moves bodies drops it. Once the view has settled, successive
	// polls re-serve the bytes until a mutation bumps the generation, so
	// an idle client costs neither an aggregation pass nor an encode. The
	// ETag lets the client skip the body too: a hash of the bytes under a
	// per-server seed, so a tag never outlives the server that issued it.
	cache    []byte
	cacheGen uint64
	cacheTag string
	tagSeed  maphash.Seed

	// The cached payload is also the next full frame's template (see
	// encodeGraph) while cacheToken, the structure token of the graph
	// it was written from, matches that frame's graph; 0 means it is
	// none. marks locate each node's text in it and edgesAt its edge
	// list; memo remembers recently formatted numbers across frames.
	cacheToken uint64
	marks      []nodeMark
	edgesAt    [2]int32
	memo       *wire.FloatMemo

	// The lengths of the last full and LOD /api/graph payloads: the next
	// frame's buffer size hint for each form.
	graphLen, lodLen int
}

// New creates a server over a view.
func New(view *core.View) *Server {
	return &Server{view: view, tagSeed: maphash.MakeSeed(), memo: new(wire.FloatMemo)}
}

// SetStream attaches a live stream: Handler gains the /api/stream SSE
// route and Serve closes the hub (terminal shutdown frames, subscriber
// drain) before the HTTP listener shuts down. Set it before Handler.
func (s *Server) SetStream(st *stream.Stream) { s.stream = st }

// SetSelfStream attaches the live meta-trace stream (the pipeline's own
// stage spans, see stream.NewSelfSource) on /api/stream/self. Set it
// before Handler; its hub closes with the primary one on shutdown.
func (s *Server) SetSelfStream(st *stream.Stream) { s.selfStream = st }

// Locker exposes the mutex serialising view access, so a stream
// publisher can mutate the live trace between requests; pass it as the
// stream Config.Locker together with an OnTick that calls the view's
// RefreshSource.
func (s *Server) Locker() sync.Locker { return &s.mu }

// Handler returns the HTTP handler serving the UI and the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /", s.handleIndex)
	mux.HandleFunc("GET /api/graph", instrument("/api/graph", s.handleGraph))
	mux.HandleFunc("GET /api/meta", instrument("/api/meta", s.handleMeta))
	mux.HandleFunc("GET /api/node", instrument("/api/node", s.handleNode))
	mux.HandleFunc("GET /svg", instrument("/svg", s.handleSVG))
	mux.HandleFunc("POST /api/slice", instrument("/api/slice", s.handleSlice))
	mux.HandleFunc("POST /api/shift", instrument("/api/shift", s.handleShift))
	mux.HandleFunc("POST /api/aggregate", instrument("/api/aggregate", s.handleAggregate))
	mux.HandleFunc("POST /api/disaggregate", instrument("/api/disaggregate", s.handleDisaggregate))
	mux.HandleFunc("POST /api/level", instrument("/api/level", s.handleLevel))
	mux.HandleFunc("POST /api/scale", instrument("/api/scale", s.handleScale))
	mux.HandleFunc("POST /api/fillmode", instrument("/api/fillmode", s.handleFillMode))
	mux.HandleFunc("POST /api/params", instrument("/api/params", s.handleParams))
	mux.HandleFunc("POST /api/move", instrument("/api/move", s.handleMove))
	mux.HandleFunc("POST /api/unpin", instrument("/api/unpin", s.handleUnpin))
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /api/obs/frames", instrument("/api/obs/frames", handleObsFrames))
	mux.HandleFunc("GET /api/obs/flightrec", instrument("/api/obs/flightrec", handleFlightRec))
	mux.HandleFunc("GET /api/obs/debug", instrument("/api/obs/debug", s.handleObsDebug))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	if s.stream != nil {
		mux.HandleFunc("GET "+streamPath, s.handleStream)
	}
	if s.selfStream != nil {
		mux.HandleFunc("GET "+selfStreamPath, s.handleSelfStream)
	}
	if s.EnablePprof {
		registerPprof(mux)
	}
	return recoverMiddleware(s.deadlineMiddleware(mux))
}

// The streaming paths are exempt from the per-request deadline: SSE
// responses are long-lived by design and pace themselves with per-write
// deadlines.
const (
	streamPath     = "/api/stream"
	selfStreamPath = "/api/stream/self"
)

// deadlineMiddleware replaces the old server-wide Read/WriteTimeout
// (which would kill any long-lived stream mid-flight) with per-request
// deadlines set through http.ResponseController, skipped for streaming
// routes. Errors are ignored on transports without deadline support
// (httptest recorders); the real server supports it.
func (s *Server) deadlineMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != streamPath && r.URL.Path != selfStreamPath {
			d := s.RequestTimeout
			if d <= 0 {
				d = requestTimeout
			}
			rc := http.NewResponseController(w)
			_ = rc.SetReadDeadline(time.Now().Add(d))
			_ = rc.SetWriteDeadline(time.Now().Add(d))
		}
		next.ServeHTTP(w, r)
	})
}

// recoverMiddleware converts a handler panic into a 500 JSON response, so
// one poisoned request (a malformed trace tripping an invariant, say)
// degrades to an error instead of killing the whole visualization
// session. http.ErrAbortHandler keeps its conventional meaning.
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			writeJSON(w, http.StatusInternalServerError,
				map[string]string{"error": fmt.Sprintf("internal error: %v", rec)})
		}()
		next.ServeHTTP(w, r)
	})
}

// Timeouts bounding one request's I/O; the handlers themselves are
// in-memory and fast, so slow-client protection is what matters.
const (
	readHeaderTimeout = 5 * time.Second
	requestTimeout    = 30 * time.Second
	shutdownTimeout   = 10 * time.Second
)

// Run serves on addr until ctx is canceled, then shuts down gracefully:
// in-flight requests get up to shutdownTimeout to finish before the
// listener's error is returned.
func (s *Server) Run(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is Run over an existing listener (which it takes ownership of).
// Read/write bounding is per request (deadlineMiddleware) rather than
// server-wide, so the SSE route can outlive any fixed timeout; on ctx
// cancellation an attached stream hub closes first — every subscriber
// gets a terminal shutdown frame and drains — before the HTTP shutdown
// waits out in-flight requests.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       2 * time.Minute,
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
	}
	if s.stream != nil {
		s.stream.Hub.Close()
	}
	if s.selfStream != nil {
		s.selfStream.Hub.Close()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-done; err != nil && err != http.ErrServerClosed {
		return err
	}
	s.logCacheSummary()
	return nil
}

// logCacheSummary reports the graph-payload cache's lifetime efficiency
// in one line when the server shuts down gracefully — the quick answer
// to "did the ETag/304 path earn its keep this session".
func (s *Server) logCacheSummary() {
	hits, notMod, misses := obsCacheHits.Value(), obsCache304.Value(), obsCacheMisses.Value()
	total := hits + misses
	ratio := 0.0
	if total > 0 {
		ratio = float64(hits) / float64(total)
	}
	slog.Info("server: graph cache on shutdown",
		"hits", hits, "etag_304", notMod, "misses", misses,
		"hit_rate", fmt.Sprintf("%.1f%%", 100*ratio))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
}

// maxBodyBytes bounds API request bodies. The largest legitimate payload
// (layout params) is well under a kilobyte; a megabyte leaves room
// without letting a client exhaust memory.
const maxBodyBytes = 1 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) error {
	defer r.Body.Close()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	steps := 5
	if q := r.URL.Query().Get("steps"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &steps); err != nil || steps < 0 || steps > 1000 {
			writeErr(w, fmt.Errorf("bad steps %q", q))
			return
		}
	}
	// Viewport + zoom switch the response to the level-of-detail form:
	// full detail inside the viewport, coarse hierarchy groups beyond.
	var vp *vizgraph.Viewport
	zoom := 1.0
	if q := r.URL.Query().Get("viewport"); q != "" {
		var v vizgraph.Viewport
		// Sscanf's %f accepts NaN and ±Inf, which slip past the ordering
		// checks: reject them explicitly.
		if _, err := fmt.Sscanf(q, "%f,%f,%f,%f", &v.MinX, &v.MinY, &v.MaxX, &v.MaxY); err != nil ||
			!finite(v.MinX, v.MinY, v.MaxX, v.MaxY) || v.MaxX < v.MinX || v.MaxY < v.MinY {
			writeErr(w, fmt.Errorf("bad viewport %q (want minX,minY,maxX,maxY)", q))
			return
		}
		vp = &v
		if zq := r.URL.Query().Get("zoom"); zq != "" {
			if _, err := fmt.Sscanf(zq, "%f", &zoom); err != nil || !finite(zoom) || zoom <= 0 {
				writeErr(w, fmt.Errorf("bad zoom %q", zq))
				return
			}
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// A cached payload is current for a request that moves no body: on a
	// settled view, or one that steps nothing. LOD responses depend on
	// per-request viewport and zoom, so they bypass it entirely.
	if vp == nil && s.cache != nil && s.cacheGen == s.view.Generation() && (steps == 0 || s.view.Settled()) {
		// Nothing changed since a settled rendering was cached: serve it
		// without stepping, rebuilding or re-encoding anything.
		obsCacheHits.Inc()
		w.Header().Set("ETag", s.cacheTag)
		if r.Header.Get("If-None-Match") == s.cacheTag {
			obsCache304.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(s.cache)
		return
	}
	obsCacheMisses.Inc()
	// One interactive frame: the aggregate/build spans fire inside the
	// graph rebuild, layout spans inside the steps, render around the
	// encode. The ring ties them together for /api/obs/frames.
	frame := obs.Frames.BeginFrame()
	defer obs.Frames.EndFrame(frame)
	gen := s.view.Generation()
	g, err := s.view.Graph()
	if err != nil {
		writeErr(w, err)
		return
	}
	if steps > 0 && !s.view.Settled() {
		s.cache = nil // this frame moves bodies: the cached bytes go stale
	}
	moving := s.view.StepLayout(steps)
	tree := s.view.Aggregator().Tree()
	if vp != nil {
		s.writeGraphLOD(w, g, tree, *vp, zoom, moving)
		return
	}
	renderSpan := obs.StartSpan(obs.StageRender)
	body, err := s.encodeGraph(g, tree, moving)
	renderSpan.End()
	if err != nil {
		writeErr(w, err)
		return
	}
	if steps == 0 || s.view.Settled() {
		// The picture is stationary: cache and tag the bytes for this
		// generation.
		s.cache, s.cacheGen, s.cacheToken = body, gen, g.Token()
		s.cacheTag = fmt.Sprintf(`"%016x"`, maphash.Bytes(s.tagSeed, body))
		w.Header().Set("ETag", s.cacheTag)
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// finite reports whether every value is neither NaN nor ±Inf.
func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func (s *Server) writeGraphLOD(w http.ResponseWriter, g *vizgraph.Graph, tree *aggregation.Tree, vp vizgraph.Viewport, zoom, moving float64) {
	lay := s.view.Layout()
	lod := vizgraph.BuildLOD(g, tree, func(id string) (float64, float64, bool) {
		b := lay.Body(id)
		if b == nil {
			return 0, 0, false
		}
		return b.Pos.X, b.Pos.Y, true
	}, vp, zoom)
	renderSpan := obs.StartSpan(obs.StageRender)
	body, err := s.encodeLOD(lod, tree, moving)
	renderSpan.End()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

type metaJSON struct {
	Window   [2]float64 `json:"window"`
	MaxDepth int        `json:"maxDepth"`
	Metrics  []string   `json:"metrics"`
	Types    []string   `json:"types"`
	Groups   []string   `json:"groups"` // interior hierarchy nodes
}

func (s *Server) handleMeta(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tr := s.view.Source()
	tree := s.view.Aggregator().Tree()
	ws, we := tr.Window()
	meta := metaJSON{Window: [2]float64{ws, we}, MaxDepth: tree.MaxDepth(), Metrics: tr.Metrics()}
	typeSet := map[string]bool{}
	for _, r := range tr.Resources() {
		if !typeSet[r.Type] {
			typeSet[r.Type] = true
			meta.Types = append(meta.Types, r.Type)
		}
	}
	for _, name := range tree.Names() {
		if !tree.Node(name).IsEntity() {
			meta.Groups = append(meta.Groups, name)
		}
	}
	writeJSON(w, http.StatusOK, meta)
}

// statsJSON is the wire form of the statistical aggregation companions
// (the paper's future-work indicators: variance and friends let the
// analyst spot heterogeneous aggregates worth disaggregating).
type statsJSON struct {
	Count  int     `json:"count"`
	Sum    float64 `json:"sum"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
	Median float64 `json:"median"`
}

type nodeDetailJSON struct {
	ID        string    `json:"id"`
	Label     string    `json:"label"`
	Group     string    `json:"group"`
	Type      string    `json:"type"`
	Count     int       `json:"count"`
	Value     float64   `json:"value"`
	Fill      float64   `json:"fill"`
	Avail     float64   `json:"avail"`
	SizeStats statsJSON `json:"sizeStats"`
	FillStats statsJSON `json:"fillStats"`
	Members   []string  `json:"members"`
}

func toStatsJSON(st aggregation.Stats) statsJSON {
	return statsJSON{
		Count: st.Count, Sum: st.Sum, Mean: st.Mean,
		Min: st.Min, Max: st.Max,
		Stddev: math.Sqrt(st.Variance), Median: st.Median,
	}
}

// handleNode returns one node's full aggregation detail: the statistical
// companions of its value and fill, plus (a sample of) the member
// entities it aggregates.
func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.view.Graph()
	if err != nil {
		writeErr(w, err)
		return
	}
	n := g.Node(id)
	if n == nil {
		writeErr(w, fmt.Errorf("unknown node %q", id))
		return
	}
	detail := nodeDetailJSON{
		ID: n.ID, Label: n.Label, Group: n.Group, Type: n.Type,
		Count: n.Count, Value: n.Value, Fill: n.Fill, Avail: n.Avail,
		SizeStats: toStatsJSON(n.SizeStats),
		FillStats: toStatsJSON(n.FillStats),
	}
	tree := s.view.Aggregator().Tree()
	for _, m := range s.view.Cut().Members(n.Group) {
		if tree.Node(m).Type != n.Type {
			continue
		}
		detail.Members = append(detail.Members, m)
		if len(detail.Members) >= 50 {
			break
		}
	}
	writeJSON(w, http.StatusOK, detail)
}

func (s *Server) handleSVG(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	g, err := s.view.Graph()
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	_, _ = w.Write(render.SVG(g, s.view.Layout(), render.DefaultOptions()))
}

func (s *Server) handleSlice(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Start float64 `json:"start"`
		End   float64 `json:"end"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.SetTimeSlice(req.Start, req.End); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleShift(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dt float64 `json:"dt"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.ShiftTimeSlice(req.Dt); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleAggregate(w http.ResponseWriter, r *http.Request) {
	s.groupOp(w, r, s.view.Aggregate)
}

func (s *Server) handleDisaggregate(w http.ResponseWriter, r *http.Request) {
	s.groupOp(w, r, s.view.Disaggregate)
}

func (s *Server) groupOp(w http.ResponseWriter, r *http.Request, op func(string) error) {
	var req struct {
		Group string `json:"group"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := op(req.Group); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleLevel(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Depth int `json:"depth"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.SetLevel(req.Depth); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleScale(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Type   string  `json:"type"`
		Factor float64 `json:"factor"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.SetScale(req.Type, req.Factor); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// handleFillMode switches a type's aggregated-fill semantics between the
// paper's ratio and the saturation-preserving max (see
// vizgraph.FillAggregation).
func (s *Server) handleFillMode(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Type string `json:"type"`
		Mode string `json:"mode"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	var mode vizgraph.FillAggregation
	switch req.Mode {
	case "ratio":
		mode = vizgraph.FillRatio
	case "max":
		mode = vizgraph.FillMaxRatio
	default:
		writeErr(w, fmt.Errorf("unknown fill mode %q (want ratio or max)", req.Mode))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.SetFillAggregation(req.Type, mode); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleParams(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	p := s.view.Layout().Params()
	s.mu.Unlock()
	// Decode over the current params so omitted fields keep their value.
	if err := decode(w, r, &p); err != nil {
		writeErr(w, err)
		return
	}
	if p.Damping < 0 || p.Damping >= 1 || p.Charge < 0 || p.Spring < 0 || p.Parallelism < 0 {
		writeErr(w, fmt.Errorf("invalid parameters"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.view.SetLayoutParams(p)
	writeJSON(w, http.StatusOK, p)
}

func (s *Server) handleMove(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID  string  `json:"id"`
		X   float64 `json:"x"`
		Y   float64 `json:"y"`
		Pin bool    `json:"pin"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.MoveNode(req.ID, req.X, req.Y, req.Pin); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleUnpin(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.view.UnpinNode(req.ID); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(indexHTML))
}
