package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"viva/internal/core"
	"viva/internal/ingest"
	"viva/internal/store"
	"viva/internal/trace"
	"viva/internal/traceio"
)

// goldenRatio - 1 steps the session's sweeps: successive multiples
// modulo 1 spread evenly over [0, 1).
const goldenRatio = 0.6180339887498949

// oracleInteractions is the length of the session prefix whose response
// bodies must hash the same over the heap and the store backends.
const oracleInteractions = 12

// scrubEnv is a served view over one backend whose layout has settled.
type scrubEnv struct {
	srv      *served
	st       *store.Store // nil on the heap backend
	clusters []string
}

func (e *scrubEnv) close() {
	e.srv.close()
	if e.st != nil {
		_ = e.st.Close() // read-only file
	}
}

// runScrub is scrub-heap (useStore false) and scrub-store: one
// closed-loop analyst scrubbing a served Grid'5000 view over HTTP. A
// store run then checks its bodies against a heap session of the seed.
func runScrub(r *runner, useStore bool) error {
	env, release, err := timeSetups(r, func() (*scrubEnv, func(), error) {
		env, err := r.setupScrub(useStore, r.t)
		if err != nil {
			return nil, nil, err
		}
		return env, env.close, nil
	})
	if err != nil {
		return err
	}
	defer release()

	var hashes []uint64
	err = r.pass(func(t *tracer) (float64, error) {
		h, p50, err := r.scrubSession(env, t, time.Now().Add(r.seconds), true)
		if t == nil {
			hashes = h
			r.e2e["heap_mb"] = heapMB()
		}
		return p50, err
	})
	if err != nil || !useStore {
		return err
	}
	return r.checkScrubOracle(hashes)
}

// setupScrub simulates the scenario and opens it on one backend: the
// heap (traceio.LoadWith) or the .vvc compaction of the same trace
// (store.OpenWith with the default chunk cache). The layout is settled
// with the multilevel V-cycle, as vivaserve -multilevel does, before the
// server starts.
func (r *runner) setupScrub(useStore bool, t *tracer) (*scrubEnv, error) {
	sc, err := r.simulate(t)
	if err != nil {
		return nil, err
	}
	sc.tr = nil
	env := &scrubEnv{}
	var v *core.View
	if useStore {
		vvc := filepath.Join(r.dir, "grid.vvc")
		sp := t.start("store.CompactFile", 0)
		t0 := time.Now()
		err := store.CompactFile(sc.path, vvc, ingest.Options{}, store.WriterOptions{})
		compact := time.Since(t0)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("compact: %w", err)
		}
		sp = t.start("store.OpenWith", 0)
		t0 = time.Now()
		env.st, err = store.OpenWith(vvc, store.OpenOptions{})
		open := time.Since(t0)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		sp = t.start("core.NewViewOf", 0)
		t0 = time.Now()
		v, err = core.NewViewOf(env.st)
		t.end(sp)
		if err != nil {
			env.st.Close()
			return nil, err
		}
		if t != nil {
			r.layer["store.compact_s"] = compact.Seconds()
			r.layer["store.open_ms"] = float64(open) / 1e6
			r.layer["core.newview_ms"] = float64(time.Since(t0)) / 1e6
		}
	} else {
		sp := t.start("traceio.LoadWith", 0)
		t0 := time.Now()
		tr, err := traceio.LoadWith(sc.path, ingest.Options{})
		load := time.Since(t0).Seconds()
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sp = t.start("core.NewView", 0)
		t0 = time.Now()
		v, err = core.NewView(tr)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		if t != nil {
			r.layer["traceio.load_s"] = load
			r.layer["ingest.mb_per_s"] = float64(sc.bytes) / (1 << 20) / load
			r.layer["core.newview_ms"] = float64(time.Since(t0)) / 1e6
		}
	}
	sp := t.start("layout.StabilizeMultilevel", 0)
	v.StabilizeMultilevel(0.1)
	t.end(sp)

	seen := make(map[string]bool)
	for _, res := range v.Source().Resources() {
		if res.Type == trace.TypeHost && res.Parent != "" && !seen[res.Parent] {
			seen[res.Parent] = true
			env.clusters = append(env.clusters, res.Parent)
		}
	}
	sort.Strings(env.clusters)
	if env.srv, err = serve(v, nil); err != nil {
		if env.st != nil {
			env.st.Close()
		}
		return nil, err
	}
	return env, nil
}

// graphBody is the part of an /api/graph response the client checks.
type graphBody struct {
	Nodes []struct {
		X float64 `json:"x"`
		Y float64 `json:"y"`
	} `json:"nodes"`
	Groups []struct{} `json:"groups"` // level-of-detail form only
	Edges  []struct{} `json:"edges"`
	Slice  [2]float64 `json:"slice"`
}

// scrubSession runs the seeded analyst session until the deadline, and
// at least for the oracle prefix. Every tenth interaction aggregates one
// cluster and then disaggregates it; the others post a new time slice,
// every fifth then reading the level-of-detail form of a zoomed
// viewport. After each interaction the page makes one idle poll, as the
// browser UI does.
//
// The seed picks the phases of the session, not its shape: the mix of
// interactions is fixed by position, slices and viewports follow
// golden-ratio sweeps from seeded offsets, and clusters come in a seeded
// order. Every seed then covers the window and the picture evenly, so a
// run's cost does not hinge on where a few dozen random slices fell.
//
// It returns the FNV-64a of each body of the oracle prefix (untraced
// passes only) and the frame median. Unless report is false, an untraced
// pass sets the frame metrics and a traced one the per-layer metrics.
func (r *runner) scrubSession(env *scrubEnv, t *tracer, deadline time.Time, report bool) ([]uint64, float64, error) {
	env.srv.setTracer(t)
	defer env.srv.setTracer(nil)
	c := newClient(env.srv.url)
	defer c.close()

	rng := rand.New(rand.NewSource(r.seed))
	var phase [5]float64 // slice start, slice width, viewport x, viewport y, zoom
	for k := range phase {
		phase[k] = rng.Float64()
	}
	sweep := func(k, j int) float64 {
		_, f := math.Modf(phase[k] + float64(j)*goldenRatio)
		return f
	}
	order := rng.Perm(len(env.clusters))
	ws, we := env.srv.view.Source().Window()
	var (
		frames, polls samples
		hashes        []uint64
		bytesFull     samples
		last          graphBody
		minX, minY    float64
		maxX, maxY    = 1.0, 1.0
	)
	hits0, misses0 := aggStats()
	srvHit0, srvMiss0 := serverCache()
	var sHit0, sMiss0 int64
	if env.st != nil {
		sHit0, sMiss0, _ = env.st.CacheStats()
	}
	keep := func(i int, b []byte) {
		if t == nil && i < oracleInteractions {
			hashes = append(hashes, fnvSum(b))
		}
	}
	// frame posts one mutation and reads the next graph; the wait counts
	// from the POST until the graph body is fully read.
	frame := func(i, root int, path string, body []byte, query string, slice *[2]float64) {
		r.attempted++
		t0 := time.Now()
		if _, err := c.do(t, root, "POST", path, body); err != nil {
			r.fail("scrub: %v", err)
			return
		}
		b, err := c.do(t, root, "GET", "/api/graph?steps=5"+query, nil)
		wait := time.Since(t0)
		if err != nil {
			r.fail("scrub: %v", err)
			return
		}
		var g graphBody
		if err := json.Unmarshal(b, &g); err != nil || len(g.Nodes)+len(g.Groups) == 0 {
			r.fail("scrub: unparsable or empty frame after %s (%d bytes): %v", path, len(b), err)
			return
		}
		if slice != nil && g.Slice != *slice {
			r.fail("scrub: frame shows slice %v after posting %v", g.Slice, *slice)
			return
		}
		frames = append(frames, float64(wait)/1e6)
		keep(i, b)
		if query == "" {
			last = g
			bytesFull = append(bytesFull, float64(len(b)))
			minX, minY, maxX, maxY = bbox(g)
		}
	}
	i := 0
	for ; i < oracleInteractions || time.Now().Before(deadline); i++ {
		root := t.begin("journey.scrub")
		if i%10 == 9 {
			group := env.clusters[order[(i/10)%len(order)]]
			body := []byte(fmt.Sprintf(`{"group":%q}`, group))
			frame(i, root, "/api/aggregate", body, "", nil)
			frame(i, root, "/api/disaggregate", body, "", nil)
		} else {
			w := (we - ws) * (0.05 + 0.35*sweep(1, i))
			a := ws + (we-ws-w)*sweep(0, i)
			slice := [2]float64{a, a + w}
			query := ""
			if i%5 == 2 {
				// A quarter of the picture's width, zoomed 2-8x.
				qw, qh := (maxX-minX)/4, (maxY-minY)/4
				x0, y0 := minX+3*qw*sweep(2, i), minY+3*qh*sweep(3, i)
				query = fmt.Sprintf("&viewport=%g,%g,%g,%g&zoom=%d", x0, y0, x0+qw, y0+qh, 2<<int(3*sweep(4, i)))
			}
			body := []byte(fmt.Sprintf(`{"start":%v,"end":%v}`, slice[0], slice[1]))
			frame(i, root, "/api/slice", body, query, &slice)
		}
		r.attempted++
		t0 := time.Now()
		b, err := c.do(t, root, "GET", "/api/graph?steps=5", nil)
		if err != nil || !json.Valid(b) {
			r.fail("scrub: idle poll: %v (%d bytes)", err, len(b))
		} else {
			polls = append(polls, float64(time.Since(t0))/1e6)
			keep(i, b)
		}
		t.end(root)
	}

	p50 := frames.p50()
	if t == nil {
		if !report {
			return hashes, p50, nil
		}
		p50 = r.reportFrames("scrub frame", frames)
		r.note("scrub: %d interactions, %d frames, %d idle polls (p50 %.3f ms)", i, len(frames), len(polls), polls.p50())
		return hashes, p50, nil
	}
	s := env.srv
	s.mu.Lock()
	r.layer["core.graph_ms"] = s.graph.p50()
	r.layer["layout.step_ms"] = s.layout.p50()
	r.layer["server.encode_ms"] = s.encode.p50()
	r.layer["server.mutate_ms"] = s.mutate.p50()
	r.layer["vizgraph.lod_ms"] = s.lod.p50()
	s.mu.Unlock()
	r.layer["ui.poll_p50_ms"] = polls.p50()
	r.layer["server.frame_bytes"] = bytesFull.p50()
	r.layer["vizgraph.nodes"] = float64(len(last.Nodes))
	r.layer["vizgraph.edges"] = float64(len(last.Edges))
	hits, misses := aggStats()
	r.layer["aggregation.stats_miss_ratio"] = ratio(misses-misses0, hits-hits0+misses-misses0)
	srvHit, srvMiss := serverCache()
	r.layer["server.cache_hit_ratio"] = ratio(srvHit-srvHit0, srvHit-srvHit0+srvMiss-srvMiss0)
	if env.st != nil {
		h, m, resident := env.st.CacheStats()
		r.layer["store.cache_hit_ratio"] = ratio(float64(h-sHit0), float64(h-sHit0+m-sMiss0))
		r.layer["store.chunk_misses_per_frame"] = float64(m-sMiss0) / float64(max(1, len(frames)+len(polls)))
		r.layer["store.resident_bytes"] = float64(resident)
	}
	return nil, p50, nil
}

func bbox(g graphBody) (minX, minY, maxX, maxY float64) {
	minX, minY, maxX, maxY = g.Nodes[0].X, g.Nodes[0].Y, g.Nodes[0].X, g.Nodes[0].Y
	for _, n := range g.Nodes {
		minX, maxX = min(minX, n.X), max(maxX, n.X)
		minY, maxY = min(minY, n.Y), max(maxY, n.Y)
	}
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func aggStats() (hits, misses float64) {
	return obsValue("viva_agg_stats_cache_hits_total"), obsValue("viva_agg_stats_cache_misses_total")
}

func serverCache() (hits, misses float64) {
	return obsValue("viva_server_graph_cache_hits_total"), obsValue("viva_server_graph_cache_misses_total")
}

// checkScrubOracle compares the oracle prefix of a store session with
// a heap-backed session of the same seed, run in-process after the
// measured phase so both come from the same build.
func (r *runner) checkScrubOracle(hashes []uint64) error {
	env, err := r.setupScrub(false, nil)
	if err != nil {
		return fmt.Errorf("heap reference: %w", err)
	}
	want, _, err := r.scrubSession(env, nil, time.Now(), false)
	env.close()
	if err != nil {
		return fmt.Errorf("heap reference: %w", err)
	}
	r.check(len(hashes) > 0 && slices.Equal(want, hashes),
		"scrub: %d oracle bodies differ from the heap reference (%d bodies)", len(hashes), len(want))
	return nil
}
