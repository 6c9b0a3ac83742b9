package obs_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"viva/internal/obs"
	"viva/internal/paje"
	"viva/internal/trace"
	"viva/internal/traceio"
)

// TestSelfTraceRoundTrip writes a meta-trace through the ring fan-out and
// reads it back with internal/paje: the visualizer must be able to load
// its own execution. Checks the container hierarchy (root "viva" of a
// group type, stages below it) and the duration_ms variable timelines.
func TestSelfTraceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "self.paje")
	st, err := obs.StartSelfTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRing(8)
	r.Attach(st)

	for i := 0; i < 3; i++ {
		seq := r.BeginFrame()
		for _, stage := range []obs.StageID{obs.StageAggregate, obs.StageBuild, obs.StageLayout, obs.StageRender} {
			sp := r.StartSpan(stage)
			spin()
			sp.End()
		}
		r.EndFrame(seq)
	}
	r.Detach(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := paje.Read(f)
	if err != nil {
		t.Fatalf("paje.Read of self-trace: %v", err)
	}

	root := tr.Resource("viva")
	if root == nil {
		t.Fatal("self-trace lacks the root container \"viva\"")
	}
	if root.Type != trace.TypeGroup {
		t.Errorf("root type = %q, want %q", root.Type, trace.TypeGroup)
	}
	for _, stage := range []string{"aggregate", "build", "layout", "render", "frame"} {
		res := tr.Resource(stage)
		if res == nil {
			t.Errorf("self-trace lacks stage container %q", stage)
			continue
		}
		if res.Parent != "viva" {
			t.Errorf("stage %q parent = %q, want viva", stage, res.Parent)
		}
		// The container type is named stage_node on purpose: paje maps
		// it to a host, so the default visual mapping draws the stages.
		if res.Type != trace.TypeHost {
			t.Errorf("stage %q type = %q, want %q", stage, res.Type, trace.TypeHost)
		}
		if !tr.HasMetric(stage, "duration_ms") {
			t.Errorf("stage %q carries no duration_ms timeline", stage)
			continue
		}
		start, end := tr.Window()
		tl := tr.Timeline(stage, "duration_ms")
		if max := tl.Max(start, end); max <= 0 {
			t.Errorf("stage %q duration_ms max = %g, want > 0", stage, max)
		}
		// The mirrored power timeline sizes the stage node in the view.
		if tl := tr.Timeline(stage, trace.MetricPower); tl.Max(start, end) <= 0 {
			t.Errorf("stage %q power max = %g, want > 0", stage, tl.Max(start, end))
		}
	}
}

// TestSelfTraceSpansWithoutFrames checks a batch tool (no frames open)
// still produces a loadable meta-trace from bare spans.
func TestSelfTraceSpansWithoutFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.paje")
	st, err := obs.StartSelfTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	r := obs.NewRing(4)
	r.Attach(st)
	for i := 0; i < 5; i++ {
		sp := r.StartSpan(obs.StageLayout)
		spin()
		sp.End()
	}
	r.Detach(st)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := paje.Read(f)
	if err != nil {
		t.Fatalf("paje.Read: %v", err)
	}
	if !tr.HasMetric("layout", "duration_ms") {
		t.Error("batch self-trace lacks the layout duration timeline")
	}
}

// TestSelfTraceIngestSpan closes the loop over the ingestion path: a
// trace load through traceio while a self-trace is attached must
// record an "ingest" span, which reads back (through that very ingestion
// path) as a stage container with a positive duration_ms timeline.
func TestSelfTraceIngestSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ingest.paje")
	st, err := obs.StartSelfTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	obs.Frames.Attach(st)
	_, loadErr := traceio.Read(strings.NewReader("resource h host -\nset 0 h power 5\nend 1\n"))
	obs.Frames.Detach(st)
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := paje.Read(f)
	if err != nil {
		t.Fatalf("paje.Read of self-trace: %v", err)
	}
	res := tr.Resource("ingest")
	if res == nil {
		t.Fatal("self-trace lacks the \"ingest\" stage container")
	}
	if res.Parent != "viva" {
		t.Errorf("ingest parent = %q, want viva", res.Parent)
	}
	start, end := tr.Window()
	if max := tr.Timeline("ingest", "duration_ms").Max(start, end); max <= 0 {
		t.Errorf("ingest duration_ms max = %g, want > 0", max)
	}
}
