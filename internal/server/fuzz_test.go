package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"viva/internal/stream"
	"viva/internal/vizgraph"
)

// FuzzGraphQuery drives /api/graph's query parsing (steps, viewport,
// zoom) with arbitrary strings. Every request must end in 200 or 400 —
// never a panic (the recovery middleware would turn it into a 500) — and
// a 200 must come from finite inputs, carry only finite numbers, and be
// byte-identical to json.Marshal of the reference wire structs. The
// seed corpus covers the full and LOD forms, every rejection branch, and
// the non-finite spellings fmt's %f accepts (NaN, Inf, +Inf, -Inf).
func FuzzGraphQuery(f *testing.F) {
	f.Add("", "", "")
	f.Add("0", "", "")
	f.Add("5", "-100,-100,100,100", "1")
	f.Add("1000", "-1e3,-1e3,1e3,1e3", "0.25")
	f.Add("1001", "", "")                 // steps out of range
	f.Add("-1", "", "")                   // negative steps
	f.Add("x", "", "")                    // not a number
	f.Add("3", "1,1,0,0", "")             // inverted corners
	f.Add("3", "0,0,1", "")               // too few corners
	f.Add("3", "0,0,1,1", "0")            // zero zoom
	f.Add("3", "0,0,1,1", "-2")           // negative zoom
	f.Add("3", "0,0,1,1", "abc")          // bad zoom
	f.Add("3", "NaN,0,1,1", "")           // NaN corner
	f.Add("3", "0,0,Inf,1", "")           // infinite corner
	f.Add("3", "-Inf,-Inf,+Inf,+Inf", "") // infinite viewport
	f.Add("3", "0,0,1,1", "+Inf")         // infinite zoom
	f.Add("3", "0,0,1,1", "NaN")          // NaN zoom
	f.Add("3", "0,0,1,1", "1e308")        // huge finite zoom
	f.Add("3", "-1e308,-1e308,1e308,1e308", "1e-308")

	s := New(testView(f))
	h := s.Handler()
	f.Fuzz(func(t *testing.T, steps, viewport, zoom string) {
		q := url.Values{}
		for k, v := range map[string]string{"steps": steps, "viewport": viewport, "zoom": zoom} {
			if v != "" {
				q.Set(k, v)
			}
		}
		req := httptest.NewRequest(http.MethodGet, "/api/graph?"+q.Encode(), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("steps=%q viewport=%q zoom=%q: status %d: %s", steps, viewport, zoom, rec.Code, rec.Body.String())
		}
		if viewport != "" {
			var c [4]float64
			if _, err := fmt.Sscanf(viewport, "%f,%f,%f,%f", &c[0], &c[1], &c[2], &c[3]); err == nil && !finite(c[:]...) {
				t.Fatalf("viewport %q accepted with non-finite corners %v", viewport, c)
			}
			var z float64
			if _, err := fmt.Sscanf(zoom, "%f", &z); err == nil && !finite(z) {
				t.Fatalf("zoom %q accepted", zoom)
			}
		}
		var body any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("200 with undecodable body: %v", err)
		}
		checkFinite(t, body)

		var got struct {
			Moving float64 `json:"moving"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatal(err)
		}
		var ref []byte
		var err error
		if viewport == "" {
			ref, err = refGraph(s.view, got.Moving)
		} else {
			var vp vizgraph.Viewport
			z := 1.0
			fmt.Sscanf(viewport, "%f,%f,%f,%f", &vp.MinX, &vp.MinY, &vp.MaxX, &vp.MaxY)
			if zoom != "" {
				fmt.Sscanf(zoom, "%f", &z)
			}
			ref, err = refLOD(s.view, vp, z, got.Moving)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rec.Body.Bytes(), ref) {
			t.Fatalf("steps=%q viewport=%q zoom=%q: encoder and reference differ\n got: %s\nwant: %s",
				steps, viewport, zoom, rec.Body.Bytes(), ref)
		}
	})
}

// checkFinite walks a decoded JSON value and fails on any non-finite
// number.
func checkFinite(t *testing.T, v any) {
	t.Helper()
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("non-finite number %g in response", x)
		}
	case []any:
		for _, e := range x {
			checkFinite(t, e)
		}
	case map[string]any:
		for _, e := range x {
			checkFinite(t, e)
		}
	}
}

// FuzzSliceMutation drives /api/slice and /api/shift with arbitrary
// floats and arbitrary raw bodies. Every mutation must answer 200 or 400,
// and whatever was accepted, the /api/graph that follows must be 200 with
// only finite numbers. The seeds cover the overflow paths: a shift by
// 1.7e308 taken twice (enough to overflow the bounds), a slice whose
// width overflows, and finite slices far enough out that their integrals
// would overflow.
func FuzzSliceMutation(f *testing.F) {
	f.Add(0.0, 5.0, 1.0, []byte(`{"start":1,"end":2}`), []byte(`{"dt":0.5}`))
	f.Add(0.0, 10.0, 1.7e308, []byte(`{}`), []byte(`{"dt":1.7e308}`))
	f.Add(-1.7e308, 1.7e308, 0.0, []byte(`{"start":-1.7e308,"end":1.7e308}`), []byte(`{}`))
	f.Add(0.0, 1e308, 0.0, []byte(`{"start":0,"end":1e308}`), []byte(`{"dt":-1e308}`))
	f.Add(-1e300, 1e300, 1e300, []byte(`{"start":-1e300,"end":1e300}`), []byte(`{"dt":1e300}`))
	f.Add(5.0, 5.0, -3.0, []byte(`{"start":5,"end":5}`), []byte(`{"dt":-1e20}`))
	f.Add(2.0, 1.0, 0.0, []byte(`{"start":"a"}`), []byte(`{"dt":1e400}`))
	f.Add(0.0, 1.0, 0.0, []byte(`{"start":NaN,"end":Infinity}`), []byte(`{"dt":null}`))
	f.Add(0.0, 1.0, 0.0, []byte(``), []byte(`{"dt":1,"extra":2}`))
	f.Add(1e-300, 2e-300, 1e-310, []byte(`{"start":1e-300,"end":2e-300}`), []byte(`{"dt":5e-324}`))

	f.Fuzz(func(t *testing.T, start, end, dt float64, rawSlice, rawShift []byte) {
		h := New(testView(t)).Handler()
		post := func(path string, body []byte) {
			t.Helper()
			req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
				t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body.String())
			}
		}
		num := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
		post("/api/slice", []byte(`{"start":`+num(start)+`,"end":`+num(end)+`}`))
		post("/api/shift", []byte(`{"dt":`+num(dt)+`}`))
		post("/api/shift", []byte(`{"dt":`+num(dt)+`}`))
		post("/api/slice", rawSlice)
		post("/api/shift", rawShift)
		post("/api/shift", rawShift)

		req := httptest.NewRequest(http.MethodGet, "/api/graph?steps=1", nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("graph after mutations: status %d: %s", rec.Code, rec.Body.String())
		}
		var body any
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("200 with undecodable body: %v", err)
		}
		checkFinite(t, body)
	})
}

// resumeWindow and published shape the hub FuzzStreamResume resumes
// from: deltas 1..published, the last resumeWindow of them in the resume
// window, and a full snapshot at the delta just before that window.
const (
	resumeWindow = 4
	published    = 8
	fullSeq      = published - resumeWindow
)

// cancelingWriter cancels the request after the handler's second write
// (the retry line, then the first frame or heartbeat), so each fuzzed
// stream ends after exactly one read.
type cancelingWriter struct {
	*httptest.ResponseRecorder
	cancel context.CancelFunc
	writes int
}

func (w *cancelingWriter) Write(b []byte) (int, error) {
	if w.writes++; w.writes == 2 {
		w.cancel()
	}
	return w.ResponseRecorder.Write(b)
}

// FuzzStreamResume drives the SSE resume parse with arbitrary
// Last-Event-ID headers and last_event_id query values: overflowing,
// signed, padded, non-decimal. Against a live hub every request opens a
// 200 event stream, and against a closed one it ends in a 503 with
// Retry-After; never a panic (the recovery middleware would answer 500).
// A value that parses as a sequence number inside the resume window
// resumes right after it; anything else starts from the full snapshot.
func FuzzStreamResume(f *testing.F) {
	for _, id := range []string{"", "0", "3", "4", "7", "8", "9", "18446744073709551615",
		"18446744073709551616", "99999999999999999999999", "-1", "+5", " 5", "5 ", "0x5",
		"5e0", "05", "٥", "\x00"} {
		f.Add(id, false)
		f.Add(id, true)
	}
	live := stream.NewHub(0, 0, resumeWindow)
	for seq := uint64(1); seq <= published; seq++ {
		live.Publish(&stream.Snapshot{Seq: seq, Data: []byte("{}")})
		if seq == fullSeq {
			live.SetFull(&stream.Snapshot{Seq: seq, Full: true, Data: []byte("{}")})
		}
	}
	closed := stream.NewHub(0, 0, 0)
	closed.Close()
	handler := func(h *stream.Hub) http.Handler {
		s := New(testView(f))
		s.SetStream(&stream.Stream{Hub: h})
		// Long enough that a pending frame always wins the handler's
		// select, short enough that a stream with nothing to send ends
		// soon on its heartbeat.
		s.HeartbeatInterval = 100 * time.Millisecond
		return s.Handler()
	}
	liveH, closedH := handler(live), handler(closed)

	f.Fuzz(func(t *testing.T, id string, viaQuery bool) {
		serve := func(h http.Handler) *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodGet, streamPath, nil)
			if viaQuery {
				req.URL.RawQuery = url.Values{"last_event_id": {id}}.Encode()
			} else {
				req.Header.Set("Last-Event-ID", id)
			}
			ctx, cancel := context.WithCancel(req.Context())
			defer cancel()
			w := &cancelingWriter{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
			h.ServeHTTP(w, req.WithContext(ctx))
			return w.ResponseRecorder
		}

		rec := serve(closedH)
		if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
			t.Fatalf("closed hub, id %q: status %d, Retry-After %q; want 503 with Retry-After",
				id, rec.Code, rec.Header().Get("Retry-After"))
		}

		rec = serve(liveH)
		if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "text/event-stream" {
			t.Fatalf("live hub, id %q: status %d, Content-Type %q; want a 200 event stream",
				id, rec.Code, rec.Header().Get("Content-Type"))
		}
		want := fmt.Sprintf("full %d", fullSeq)
		if v, err := strconv.ParseUint(id, 10, 64); err == nil && v >= fullSeq && v <= published {
			want = ""
			if v < published {
				want = fmt.Sprintf("delta %d", v+1)
			}
		}
		got := ""
		if ev, err := readEvent(bufio.NewReader(rec.Body)); err == nil {
			got = ev.name + " " + ev.id
		}
		if got != want {
			t.Fatalf("id %q: first event %q, want %q", id, got, want)
		}
	})
}
