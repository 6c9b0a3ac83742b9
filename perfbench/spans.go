package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; Op
// groups the spans of one interaction (one cold open, one scrub step,
// one live frame). Derived spans were not timed by the benchmark itself
// but read back from the program's frame ring, which records stage
// durations without start times: they are laid end to end from their
// parent's start, in the order the server runs them.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Op      int    `json:"op,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Derived bool   `json:"derived,omitempty"`
}

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, so the untraced run pays one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens the root span of a new interaction and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.push(span{Name: name, Op: t.ops, Start: t.now()})
}

// start opens a child span of parent (0: no parent) and returns its id.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := span{Name: name, Parent: parent, Start: t.now()}
	if parent > 0 {
		s.Op = t.spans[parent-1].Op
	}
	return t.push(s)
}

// record keeps a whole interaction timed elsewhere as one root span.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	t.push(span{Name: name, Op: t.ops, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
}

func (t *tracer) push(s span) int {
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// derive records children of parent with known durations, laid end to
// end from the parent's start (see span).
func (t *tracer) derive(parent int, names []string, durs []time.Duration) {
	if t == nil || parent == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	at := p.Start
	for i, name := range names {
		if durs[i] <= 0 {
			continue
		}
		t.push(span{Name: name, Parent: parent, Op: p.Op, Start: at, End: at + int64(durs[i]), Derived: true})
		at += int64(durs[i])
	}
}

// selfTimes returns, per layer, the summed self time of the spans of
// measured interactions in seconds: a span's duration minus the part of
// it that its children cover. Set-up spans (no interaction) and open
// spans are skipped.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 && s.End > 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range t.spans {
		if s.End == 0 || s.Op == 0 {
			continue
		}
		self := s.End - s.Start - covered(s, kids[s.ID])
		out[layerOf(s.Name)] += float64(self) / 1e9
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(p span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, p.Start), min(k.End, p.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
