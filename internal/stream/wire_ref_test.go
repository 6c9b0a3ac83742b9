package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"
	"time"

	"viva/internal/trace"
)

// The reference wire form of a snapshot: the struct the publisher
// marshalled before the append encoder. encodeFrame must produce exactly
// json.Marshal of it, omitempty rules and the null series of a quiet
// delta included.

type seriesJSON struct {
	Resource string  `json:"resource"`
	Metric   string  `json:"metric"`
	Integral float64 `json:"integral"`
	Mean     float64 `json:"mean"`
}

type resourceJSON struct {
	Name   string `json:"name"`
	Type   string `json:"type"`
	Parent string `json:"parent,omitempty"`
}

type frameJSON struct {
	Seq       uint64         `json:"seq"`
	Time      float64        `json:"time"`
	Window    [2]float64     `json:"window"`
	Events    int            `json:"events"`
	Full      bool           `json:"full,omitempty"`
	Resources []resourceJSON `json:"resources,omitempty"`
	Edges     [][2]string    `json:"edges,omitempty"`
	Series    []seriesJSON   `json:"series"`
}

func refStats(stats []seriesStat) []seriesJSON {
	var out []seriesJSON
	for _, st := range stats {
		out = append(out, seriesJSON{st.Resource, st.Metric, st.Integral, st.Mean})
	}
	return out
}

// refFrame is json.Marshal of the reference frame for encodeFrame's
// inputs.
func refFrame(h frameHead, cat *catalog, series []seriesStat) ([]byte, error) {
	f := frameJSON{Seq: h.seq, Time: h.time, Window: h.window, Events: h.events,
		Series: refStats(series)}
	if cat != nil {
		f.Full = true
		for _, r := range cat.resources {
			f.Resources = append(f.Resources, resourceJSON{r.Name, r.Type, r.Parent})
		}
		for _, e := range cat.edges {
			f.Edges = append(f.Edges, [2]string{e.A, e.B})
		}
	}
	return json.Marshal(f)
}

// TestEncodeFrameMatchesReference pins encodeFrame to the reference on
// quiet and busy deltas, full frames with and without a catalog, names
// needing escapes, exponent-form floats, and the error
// a non-finite aggregate raises.
func TestEncodeFrameMatchesReference(t *testing.T) {
	head := frameHead{seq: 42, time: 1e21, window: [2]float64{1e21 - 5, 1e21}, events: 7}
	stats := []seriesStat{
		{"h0", trace.MetricUsage, 12.5, 2.5},
		{`h<1>&"x"`, trace.MetricPower, 1e-7, -0.0000001},
		{"hôte\u2028\xff", trace.MetricUsage, 0, 1.0 / 3},
	}
	cat := &catalog{
		resources: []*trace.Resource{{Name: "root", Type: trace.TypeGroup}, {Name: `h<1>&"x"`, Type: trace.TypeHost, Parent: "root"}},
		edges:     []trace.Edge{{A: "h0", B: `h<1>&"x"`}},
	}
	for _, c := range []struct {
		name   string
		cat    *catalog
		series []seriesStat
	}{
		{"quiet delta", nil, nil},
		{"delta", nil, stats},
		{"full", cat, stats},
		{"full without catalog", &catalog{}, nil},
	} {
		got, err := encodeFrame(nil, head, c.cat, c.series)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := refFrame(head, c.cat, c.series)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoder and reference differ\n got: %s\nwant: %s", c.name, got, want)
		}
	}

	bad := []seriesStat{{"h0", trace.MetricUsage, math.Inf(1), math.NaN()}}
	_, err := encodeFrame(nil, head, nil, bad)
	_, refErr := refFrame(head, nil, bad)
	if err == nil || refErr == nil || err.Error() != refErr.Error() {
		t.Errorf("non-finite aggregate: error %v, reference %v", err, refErr)
	}
}

// TestPublisherFramesMatchReference runs a publisher and requires every delta and full payload it published to survive a
// round trip through the reference struct byte for byte: the same field
// order, omissions and nulls as json.Marshal.
func TestPublisherFramesMatchReference(t *testing.T) {
	cold := buildCold(t, 6, 400, 4)
	// Paced so the run spans many ticks: deltas, periodic fulls, a final.
	s, err := New(NewReplay(cold, 1000), Config{Tick: time.Millisecond, FullEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := s.Hub.Subscribe(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	snaps, _, _ := sub.Take(nil)
	snaps = append(snaps, s.Hub.Full())
	quiet := 0
	for _, sn := range snaps {
		var f frameJSON
		if err := json.Unmarshal(sn.Data, &f); err != nil {
			t.Fatalf("snapshot %d: %v", sn.Seq, err)
		}
		if f.Series == nil {
			quiet++
		}
		again, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, sn.Data) {
			t.Fatalf("snapshot %d (full %v) differs from the reference\n got: %s\nwant: %s", sn.Seq, sn.Full, sn.Data, again)
		}
		if sn.Full && (len(f.Resources) != len(cold.Resources()) || len(f.Edges) != len(cold.Edges())) {
			t.Fatalf("full snapshot %d: %d resources, %d edges", sn.Seq, len(f.Resources), len(f.Edges))
		}
	}
	t.Logf("%d snapshots, %d quiet deltas", len(snaps), quiet)
}
