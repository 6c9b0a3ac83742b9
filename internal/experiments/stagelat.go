package experiments

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"viva/internal/core"
	"viva/internal/obs"
	"viva/internal/server"
	"viva/internal/stream"
)

// stageLatStages is the live path in hop order: source enqueue to tick
// start, op apply, the Eq. 1 window advance with its group sums, snapshot
// encode, hub fan-out, and the SSE write into the client socket.
var stageLatStages = []string{"intake", "apply", "window", "encode", "fanout", "write"}

// StageLat measures where a live update spends its time on the way from
// the source to a client. It runs the real deployment shape — replay
// publisher, bound view, HTTP server, SSE subscribers — and reads back
// the per-stage latency histograms and the delivery-lag histogram the
// pipeline records about itself. The claims checked: every hop of the
// path is instrumented (no blind segments), the interior hops are far
// cheaper than the push SLO target (the budget is spent on the wire, not
// in the pipeline), and the SLO layer is live with its burn-rate gauges
// exported.
func StageLat(opts Options) (*Result, error) {
	hosts, events, clients := 16, 20000, 8
	if opts.Quick {
		events, clients = 4000, 3
	}

	cold, err := streamTrace(hosts, events)
	if err != nil {
		return nil, err
	}
	_, end := cold.Window()

	// Pace the replay over ~1s of wall time so hundreds of ticks flow.
	s, err := stream.New(stream.NewReplay(cold, end), stream.Config{
		Tick:           2 * time.Millisecond,
		MaxTick:        50 * time.Millisecond,
		MaxSubscribers: clients + 4,
	})
	if err != nil {
		return nil, err
	}
	v, err := core.NewView(s.Trace())
	if err != nil {
		return nil, err
	}
	srv := server.New(v)
	srv.SetStream(s)
	s.Bind(srv.Locker(), func(uint64, float64) { v.RefreshSource() })
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	before := snapshotByName()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	pubDone := make(chan error, 1)
	go func() { pubDone <- s.Run(ctx) }()

	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/stream")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			// Consume frames until the hub closes; each successful write
			// lands one observation in the write-stage and delivery-lag
			// histograms.
			io.Copy(io.Discard, resp.Body)
		}()
	}
	if err := <-pubDone; err != nil {
		return nil, fmt.Errorf("stagelat: publisher: %w", err)
	}
	s.Hub.Close()
	wg.Wait()
	after := snapshotByName()

	rep := s.Report()
	res := &Result{ID: "stagelat", Title: "Pipeline stage latency: source to client"}
	tbl := Table{
		Title:  fmt.Sprintf("replay of %d events over %d ticks, %d SSE clients", rep.Events, rep.Ticks, clients),
		Header: []string{"hop", "observations", "p50 ms", "p99 ms"},
	}

	covered, interior := true, true
	var coverDetail, interiorDetail string
	row := func(label, name string) (delta uint64) {
		b, a := before[name], after[name]
		delta = a.Count - b.Count
		tbl.Rows = append(tbl.Rows, []string{
			label,
			fmt.Sprintf("%d", delta),
			fmt.Sprintf("%.3f", a.P50*1e3),
			fmt.Sprintf("%.3f", a.P99*1e3),
		})
		return delta
	}
	for _, st := range stageLatStages {
		name := `viva_stage_seconds{stage="` + st + `"}`
		if row(st, name) == 0 {
			covered = false
			if coverDetail == "" {
				coverDetail = fmt.Sprintf("hop %q recorded no observations", st)
			}
		}
		switch st {
		case "apply", "window", "encode":
			if p99 := after[name].P99; p99 > 0.25 {
				interior = false
				if interiorDetail == "" {
					interiorDetail = fmt.Sprintf("%s p99 %.1fms exceeds the 250ms push target", st, p99*1e3)
				}
			}
		}
	}
	if row("delivery lag", "viva_stream_delivery_lag_seconds") == 0 {
		covered = false
		if coverDetail == "" {
			coverDetail = "delivery lag recorded no observations"
		}
	}
	res.Tables = append(res.Tables, tbl)

	// The SLO layer must have judged this run: every tick is one good or
	// breach observation on the push SLO, and the burn gauge is exported.
	good := after[`viva_slo_good_total{slo="stream_push"}`].Value - before[`viva_slo_good_total{slo="stream_push"}`].Value
	breach := after[`viva_slo_breach_total{slo="stream_push"}`].Value - before[`viva_slo_breach_total{slo="stream_push"}`].Value
	_, burnExported := after[`viva_slo_burn_rate{slo="stream_push"}`]
	sloLive := good+breach > 0 && burnExported

	if coverDetail == "" {
		coverDetail = "all six hops plus delivery lag recorded observations"
	}
	if interiorDetail == "" {
		interiorDetail = "apply/window/encode p99 all far under the 250ms push target"
	}
	res.Checks = append(res.Checks,
		check("every hop instrumented", covered, "%s", coverDetail),
		check("interior hops are cheap", interior, "%s", interiorDetail),
		check("SLO layer live", sloLive, "push SLO judged %d ticks (%d breaches), burn-rate gauge exported", int(good+breach), int(breach)),
	)
	res.Notes = append(res.Notes,
		"observation counts are this run's delta; quantiles read the process-cumulative histograms",
		"intake spans source enqueue to tick start, so it tracks the tick period rather than compute cost")
	return res, nil
}

// snapshotByName indexes the default registry snapshot by series name.
func snapshotByName() map[string]obs.MetricSnapshot {
	snap := obs.Default.Snapshot()
	out := make(map[string]obs.MetricSnapshot, len(snap))
	for _, m := range snap {
		out[m.Name] = m
	}
	return out
}
