package obs_test

// The metric-name lint: every family a representative pipeline run
// registers must follow the house conventions, so dashboards and alert
// rules can rely on them. The run exercises the interactive server path
// (which registers the HTTP/cache/frame families), a live stream
// publisher (stream/SLO families), and the flight recorder; every
// other instrumented package registers its series in package init, so
// importing it is enough to put its names under the lint.

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"viva/internal/core"
	"viva/internal/obs"
	"viva/internal/server"
	"viva/internal/stream"
	"viva/internal/trace"

	_ "viva/internal/aggregation"
	_ "viva/internal/ingest"
	_ "viva/internal/layout"
	_ "viva/internal/render"
	_ "viva/internal/sim"
	_ "viva/internal/store"
	_ "viva/internal/vizgraph"
)

var familyRE = regexp.MustCompile(`^viva_[a-z0-9_]+$`)

// representativeRun drives enough of the pipeline that the lazily
// registered families (per-route HTTP series, stream series, SLO
// series) exist in the default registry.
func representativeRun(t *testing.T) {
	t.Helper()
	tr := trace.New()
	tr.MustDeclareResource("root", trace.TypeGroup, "")
	rng := rand.New(rand.NewSource(11))
	now := 0.0
	for h := 0; h < 4; h++ {
		tr.MustDeclareResource(fmt.Sprintf("h%d", h), trace.TypeHost, "root")
	}
	for i := 0; i < 200; i++ {
		now += 0.01
		if err := tr.Set(now, fmt.Sprintf("h%d", rng.Intn(4)), trace.MetricUsage, float64(rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
	}
	tr.SetEnd(now)

	st, err := stream.New(stream.NewReplay(tr, 0), stream.Config{Tick: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	v, err := core.NewView(st.Trace())
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(v)
	srv.SetStream(st)
	st.Bind(srv.Locker(), func(uint64, float64) { v.RefreshSource() })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := st.Run(ctx); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/api/graph", "/api/meta", "/metrics", "/healthz", "/readyz", "/api/obs/flightrec", "/api/obs/debug"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	obs.Flight.Record(obs.FlightShed, 1, 1, 0)
}

func TestMetricNameLint(t *testing.T) {
	representativeRun(t)

	snap := obs.Default.Snapshot()
	if len(snap) < 30 {
		t.Fatalf("registry holds only %d series after a representative run — registration broke", len(snap))
	}
	helpByFamily := make(map[string]string)
	for _, m := range snap {
		if !familyRE.MatchString(m.Family) {
			t.Errorf("family %q (series %q) does not match %s", m.Family, m.Name, familyRE)
		}
		if m.Kind == "counter" && !strings.HasSuffix(m.Family, "_total") {
			t.Errorf("counter family %q must end in _total", m.Family)
		}
		if m.Kind != "counter" && strings.HasSuffix(m.Family, "_total") {
			t.Errorf("%s family %q reserves the counter suffix _total", m.Kind, m.Family)
		}
		if m.Help == "" {
			t.Errorf("series %q has no help string", m.Name)
		}
		if prev, ok := helpByFamily[m.Family]; ok {
			// Within a family every series must agree on one help string
			// (the exposition prints a single HELP header per family).
			if prev != m.Help {
				t.Errorf("family %q has conflicting help strings:\n  %q\n  %q", m.Family, prev, m.Help)
			}
		} else {
			helpByFamily[m.Family] = m.Help
		}
	}
	// Across families, help strings must be unique: a copy-pasted help
	// makes /metrics output ambiguous to a human scanning it.
	byHelp := make(map[string][]string)
	for fam, help := range helpByFamily {
		byHelp[help] = append(byHelp[help], fam)
	}
	for help, fams := range byHelp {
		if len(fams) > 1 {
			t.Errorf("families %v share the help string %q", fams, help)
		}
	}

	// Every registered stage — request path, live hops and the whole
	// frame — has its histogram, and the SLO layer exports its series.
	series := make(map[string]bool, len(snap))
	for _, m := range snap {
		series[m.Name] = true
	}
	for id := obs.StageID(0); obs.StageName(id) != ""; id++ {
		if name := `viva_stage_seconds{stage="` + obs.StageName(id) + `"}`; !series[name] {
			t.Errorf("missing per-stage histogram %s", name)
		}
	}
	for _, name := range []string{
		"viva_stream_delivery_lag_seconds",
		"viva_stream_staleness_seconds",
		`viva_slo_target{slo="stream_push"}`,
		`viva_slo_burn_rate{slo="stream_push"}`,
		`viva_slo_target{slo="stream_staleness"}`,
	} {
		if !series[name] {
			t.Errorf("missing series %s", name)
		}
	}
}
