package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"viva/internal/core"
	"viva/internal/ingest"
	"viva/internal/render"
	"viva/internal/traceio"
)

// openSteps is viva's default layout step cap.
const openSteps = 3000

// runOpen is open-grid5000: set-up simulates and writes the trace; the
// measured part cold-opens it with the calls `viva -trace f -o out.svg`
// makes by default, until the run's seconds are used (at least once).
func runOpen(r *runner) error {
	sc, _, err := timeSetups(r, func() (*scenario, func(), error) {
		s, err := r.simulate(r.t)
		if s != nil {
			s.tr = nil // only the file is opened; drop the simulator's copy
		}
		return s, func() {}, err
	})
	if err != nil {
		return err
	}

	// A traced run compares its traced opens with the untraced first.
	// Only the first SVG's hash is kept, so heap_mb holds no SVG.
	var (
		keep  *core.View
		first uint64
		opens int
	)
	err = r.pass(func(t *tracer) (float64, error) {
		var waits samples
		deadline := time.Now().Add(r.seconds)
		for len(waits) == 0 || time.Now().Before(deadline) {
			t0 := time.Now()
			svg, v, err := r.coldOpen(t, sc)
			if err != nil {
				return 0, err
			}
			waits = append(waits, float64(time.Since(t0))/1e6)
			keep = v
			if opens++; opens == 1 {
				first = fnvSum(svg)
			}
			r.check(fnvSum(svg) == first, "open: SVG of open %d differs from the first of this run", opens)
		}
		if t == nil {
			r.checkStableSVG(first)
		}
		r.e2e["heap_mb"] = heapMB()
		runtime.KeepAlive(keep)
		return r.reportFrames("open", waits), nil
	})
	return err
}

// coldOpen is one trace-file-to-SVG open. The SVG title names the trace
// by its base name so the bytes do not depend on where the run lives.
func (r *runner) coldOpen(t *tracer, sc *scenario) ([]byte, *core.View, error) {
	root := t.begin("journey.open")
	defer t.end(root)
	r.attempted++

	sp := t.start("traceio.LoadWith", root)
	t0 := time.Now()
	tr, err := traceio.LoadWith(sc.path, ingest.Options{})
	load := time.Since(t0).Seconds()
	t.end(sp)
	if err != nil {
		r.fail("open: load: %v", err)
		return nil, nil, err
	}

	sp = t.start("core.NewView", root)
	t0 = time.Now()
	v, err := core.NewView(tr)
	newView := time.Since(t0)
	t.end(sp)
	if err != nil {
		r.fail("open: view: %v", err)
		return nil, nil, err
	}

	sp = t.start("layout.Stabilize", root)
	t0 = time.Now()
	steps := v.Stabilize(openSteps, 0.1)
	stab := time.Since(t0).Seconds()
	t.end(sp)

	sp = t.start("core.Graph", root)
	g, err := v.Graph()
	t.end(sp)
	if err != nil {
		r.fail("open: graph: %v", err)
		return nil, nil, err
	}

	opts := render.DefaultOptions()
	ts := v.TimeSlice()
	opts.Title = fmt.Sprintf("%s — slice [%.2f, %.2f]", filepath.Base(sc.path), ts.Start, ts.End)
	sp = t.start("render.SVG", root)
	t0 = time.Now()
	svg := render.SVG(g, v.Layout(), opts)
	svgT := time.Since(t0)
	t.end(sp)

	if t != nil {
		r.layer["traceio.load_s"] = load
		r.layer["ingest.mb_per_s"] = float64(sc.bytes) / (1 << 20) / load
		r.layer["core.newview_ms"] = float64(newView) / 1e6
		r.layer["layout.stabilize_s"] = stab
		r.layer["layout.steps"] = float64(steps)
		r.layer["layout.residual"] = obsValue("viva_layout_residual")
		r.layer["layout.step_ms"] = 1e3 * stab / float64(max(steps, 1))
		r.layer["render.svg_ms"] = float64(svgT) / 1e6
		r.layer["render.svg_bytes"] = float64(len(svg))
		r.layer["vizgraph.nodes"] = float64(len(g.Nodes))
		r.layer["vizgraph.edges"] = float64(len(g.Edges))
	}
	if len(g.Nodes) == 0 || len(svg) == 0 {
		r.fail("open: empty view (%d nodes, %d SVG bytes)", len(g.Nodes), len(svg))
	}
	return svg, v, nil
}

// checkStableSVG compares the SVG's hash with the one an earlier run of
// the same build, seed and scale left, and leaves it for later runs when
// none did: one seed must always render the same bytes.
func (r *runner) checkStableSVG(sum uint64) {
	got := fmt.Sprintf("%016x\n", sum)
	path := filepath.Join(r.cacheDir, fmt.Sprintf("open-%s-%d.fnv", r.sc.name, r.seed))
	want, err := os.ReadFile(path)
	if err != nil {
		if werr := os.WriteFile(path, []byte(got), 0o644); werr != nil {
			r.note("open: cannot keep SVG hash: %v", werr)
		}
		return
	}
	r.check(string(want) == got, "open: SVG hash %s differs from an earlier run's %s", got[:16], string(want[:min(16, len(want))]))
}

func fnvSum(b []byte) uint64 {
	h := fnv.New64a()
	_, _ = h.Write(b) // hash writes never fail
	return h.Sum64()
}
