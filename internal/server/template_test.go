package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"viva/internal/core"
	"viva/internal/platform"
	"viva/internal/store"
	"viva/internal/trace"
	"viva/internal/vizgraph"
)

// sessionTrace is a two-site, four-cluster platform with hostsPerCluster
// hosts per cluster, each host with its own link (2 × 4 × hostsPerCluster
// nodes and a few more at the leaf level), whose usage, per-category
// usage and traffic change every second for ten seconds. Usage repeats
// a few levels with random values mixed in, so frames carry both
// recurring and one-off numbers.
func sessionTrace(t testing.TB, hostsPerCluster int, seed int64) *trace.Trace {
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
	rng := rand.New(rand.NewSource(seed))
	levels := []float64{0, 2.5e8, 5e8, 1e9}
	set := func(ts float64, r, m string, v float64) {
		if err := tr.Set(ts, r, m, v); err != nil {
			t.Fatal(err)
		}
	}
	for ts := 0.0; ts < 10; ts++ {
		for _, h := range p.Hosts() {
			u := levels[rng.Intn(len(levels))]
			if rng.Intn(4) == 0 {
				u = rng.Float64() * 1e9
			}
			set(ts, h.Name, trace.MetricUsage, u)
			set(ts, h.Name, trace.MetricUsage+":app", u*0.625)
			set(ts, h.Name, trace.MetricUsage+":io", u*0.25)
		}
		for _, l := range p.Links() {
			set(ts, l.Name, trace.MetricTraffic, rng.Float64()*l.Bandwidth)
		}
	}
	tr.SetEnd(10)
	return tr
}

// sessionViews opens a heap view and a .vvc store view of one trace.
func sessionViews(t testing.TB, tr *trace.Trace) (heap, st *core.View) {
	t.Helper()
	heap, err := core.NewView(tr)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "session.vvc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.WriteTrace(f, tr, store.WriterOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := store.OpenWith(path, store.OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if st, err = core.NewViewOf(s); err != nil {
		t.Fatal(err)
	}
	return heap, st
}

// The interactions of a session, by kind.
const (
	opScrub = iota
	opScrubMoving
	opShift
	opPinInPlace
	opDrag
	opUnpin
	opAggregate
	opDisaggregate
	opLevel
	opScale
	opSegments
	opFillMode
	opLOD
	numOps
)

// session drives one server through seeded interactions and checks
// every full /api/graph frame against an encode of the same state from
// scratch: a fresh server with no template and no memo. It counts the
// frames written from a template.
type session struct {
	t       testing.TB
	s       *Server
	h       http.Handler
	rng     *rand.Rand
	groups  []string // clusters and sites, for aggregation
	pinned  []string
	frames  int
	tmplHit int
}

func newSession(t testing.TB, v *core.View, seed int64) *session {
	s := New(v)
	ss := &session{t: t, s: s, h: s.Handler(), rng: rand.New(rand.NewSource(seed))}
	tree := v.Aggregator().Tree()
	for _, name := range tree.Names() {
		if n := tree.Node(name); !n.IsEntity() && n.Parent != "" {
			ss.groups = append(ss.groups, name)
		}
	}
	slices.Sort(ss.groups)
	return ss
}

// run applies one interaction of the given kind and reads the frames
// that follow it. Interactions the current cut refuses (aggregating an
// already aggregated group, say) are skipped; their frames are still
// read.
func (ss *session) run(kind int) {
	v, rng := ss.s.view, ss.rng
	steps := 0
	ss.s.mu.Lock()
	g := v.MustGraph()
	randomNode := func() string { return g.Nodes[rng.Intn(len(g.Nodes))].ID }
	var err error
	switch kind {
	case opScrub, opScrubMoving:
		ws, we := v.Source().Window()
		w := (we - ws) * (0.05 + 0.5*rng.Float64())
		a := ws + (we-ws-w)*rng.Float64()
		err = v.SetTimeSlice(a, a+w)
		if kind == opScrubMoving {
			steps = 5
		}
	case opShift:
		err = v.ShiftTimeSlice(0.25 * (rng.Float64() - 0.5))
	case opPinInPlace:
		// The body keeps its place: only its pin changes.
		id := randomNode()
		b := v.Layout().Body(id)
		err = v.MoveNode(id, b.Pos.X, b.Pos.Y, true)
		ss.pinned = append(ss.pinned, id)
	case opDrag:
		id := randomNode()
		b := v.Layout().Body(id)
		err = v.MoveNode(id, b.Pos.X+40*(rng.Float64()-0.5), b.Pos.Y+40*(rng.Float64()-0.5), rng.Intn(2) == 0)
		steps = 5
	case opUnpin:
		if len(ss.pinned) > 0 {
			k := rng.Intn(len(ss.pinned))
			if v.Layout().Body(ss.pinned[k]) != nil {
				err = v.UnpinNode(ss.pinned[k])
			}
			ss.pinned = slices.Delete(ss.pinned, k, k+1)
		}
	case opAggregate, opDisaggregate:
		group := ss.groups[rng.Intn(len(ss.groups))]
		if kind == opAggregate {
			_ = v.Aggregate(group)
		} else {
			_ = v.Disaggregate(group)
		}
		steps = 5 * rng.Intn(2)
	case opLevel:
		err = v.SetLevel(rng.Intn(v.Aggregator().Tree().MaxDepth() + 2))
	case opScale:
		typ := []string{trace.TypeHost, trace.TypeLink}[rng.Intn(2)]
		err = v.SetScale(typ, []float64{0.5, 1, 2, 0.1 + rng.Float64()}[rng.Intn(4)])
	case opSegments:
		err = v.SetSegments(trace.TypeHost, [][]string{nil, {"app"}, {"app", "io"}, {"io", "none"}}[rng.Intn(4)])
	case opFillMode:
		typ := []string{trace.TypeHost, trace.TypeLink}[rng.Intn(2)]
		err = v.SetFillAggregation(typ, []vizgraph.FillAggregation{vizgraph.FillRatio, vizgraph.FillMaxRatio}[rng.Intn(2)])
	}
	ss.s.mu.Unlock()
	if err != nil {
		ss.t.Fatalf("interaction %d: %v", kind, err)
	}
	if kind == opLOD {
		ss.readLOD()
		kind = opScrub
	}
	ss.frame(steps)
	if kind == opShift || kind == opScrub {
		ss.readLOD()
	}
	ss.frame(5) // the page's idle poll
}

// frame reads one full frame and checks it against the from-scratch
// encode of the view's state.
func (ss *session) frame(steps int) {
	t := ss.t
	t.Helper()
	ss.s.mu.Lock()
	if g := ss.s.view.MustGraph(); ss.s.cache != nil && ss.s.cacheToken == g.Token() {
		ss.tmplHit++
	}
	ss.s.mu.Unlock()
	rec := httptest.NewRecorder()
	ss.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/graph?steps=%d", steps), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("frame: status %d: %s", rec.Code, rec.Body.String())
	}
	var got struct {
		Moving float64 `json:"moving"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	ss.s.mu.Lock()
	g := ss.s.view.MustGraph()
	want, err := (&Server{view: ss.s.view}).encodeGraph(g, ss.s.view.Aggregator().Tree(), got.Moving)
	ss.s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if body := rec.Body.Bytes(); !bytes.Equal(body, want) {
		i := 0
		for i < min(len(body), len(want)) && body[i] == want[i] {
			i++
		}
		lo := max(i-120, 0)
		t.Fatalf("frame %d differs from the encode from scratch at byte %d:\n got: …%s…\nwant: …%s…",
			ss.frames, i, body[lo:min(i+80, len(body))], want[lo:min(i+80, len(want))])
	}
	ss.frames++
}

// readLOD reads the level-of-detail form of a quarter of the picture.
func (ss *session) readLOD() {
	ss.s.mu.Lock()
	lo, hi := ss.s.view.Layout().BoundingBox()
	ss.s.mu.Unlock()
	qw, qh := (hi.X-lo.X)/4, (hi.Y-lo.Y)/4
	x0, y0 := lo.X+3*qw*ss.rng.Float64(), lo.Y+3*qh*ss.rng.Float64()
	rec := httptest.NewRecorder()
	ss.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
		fmt.Sprintf("/api/graph?steps=0&viewport=%g,%g,%g,%g&zoom=2", x0, y0, x0+qw, y0+qh), nil))
	if rec.Code != http.StatusOK {
		ss.t.Fatalf("LOD read: status %d: %s", rec.Code, rec.Body.String())
	}
}

// sessionKinds is the 40-interaction schedule of TestFrameTemplateSession:
// scrubs before and after every other kind, pins and unpins on a view
// that has just been cached, and structure changes that both keep and
// replace the plan.
var sessionKinds = []int{
	opScrub, opScrubMoving, opShift, opPinInPlace, opScrub, opUnpin, opLOD, opDrag,
	opScrub, opScale, opScrub, opAggregate, opScrub, opPinInPlace, opDisaggregate, opScrub,
	opSegments, opScrub, opFillMode, opScrub, opLOD, opLevel, opScrub, opScrubMoving,
	opPinInPlace, opUnpin, opLevel, opShift, opSegments, opScale, opAggregate, opScrub,
	opFillMode, opDrag, opUnpin, opScrub, opLevel, opScrub, opShift, opScrub,
}

// TestFrameTemplateSession runs a seeded 40-interaction session on a
// heap view and a store view of a 2,000-node graph: slice scrubs, moving
// frames, pins, drags and unpins, aggregation and levels, scales,
// segments and fill modes, with level-of-detail reads in between. Every
// full frame, most of them written from the previous frame's template
// through the float memo, must be byte-equal to an encode from scratch.
func TestFrameTemplateSession(t *testing.T) {
	heap, st := sessionViews(t, sessionTrace(t, 250, 1))
	for _, tc := range []struct {
		name string
		v    *core.View
	}{{"heap", heap}, {"store", st}} {
		t.Run(tc.name, func(t *testing.T) {
			tc.v.Stabilize(300, 1)
			if n := len(tc.v.MustGraph().Nodes); n < 2000 {
				t.Fatalf("%d nodes, want at least 2000", n)
			}
			ss := newSession(t, tc.v, 7)
			ss.frame(0)
			for _, k := range sessionKinds {
				ss.run(k)
			}
			if ss.tmplHit < ss.frames/3 {
				t.Errorf("%d of %d frames written from a template, want at least a third", ss.tmplHit, ss.frames)
			}
		})
	}
}

// FuzzFrameTemplate is the session with the schedule taken from the
// input, on a 40-node graph: each byte is one interaction, at most 32.
func FuzzFrameTemplate(f *testing.F) {
	f.Add([]byte{0, 3, 0, 5, 12, 4, 9, 6, 0, 7, 10, 11, 8, 1, 2})
	f.Add([]byte{3, 3, 5, 5, 0, 6, 6, 7, 8, 8, 10, 0, 10})
	tr := sessionTrace(f, 4, 2)
	f.Fuzz(func(t *testing.T, kinds []byte) {
		if len(kinds) > 32 {
			kinds = kinds[:32]
		}
		v, err := core.NewView(tr)
		if err != nil {
			t.Fatal(err)
		}
		v.Stabilize(300, 1)
		ss := newSession(t, v, int64(len(kinds)))
		ss.frame(0)
		for _, k := range kinds {
			ss.run(int(k) % numOps)
		}
	})
}
