// Command perfbench is the journey benchmark of viva: four seeded
// workloads — a cold open of the Grid'5000 trace, an HTTP scrub over a
// heap-backed and over a store-backed view, and a live SSE stream — run
// through the public APIs of traceio, store, core, server and stream.
// Every output is checked; the last line of standard output is one JSON
// object with the end-to-end metrics (-trace 0) or the per-layer metrics
// of a traced run (-trace 1). See README.md for the workloads and metrics.
//
// Usage:
//
//	perfbench -workload open-grid5000|scrub-heap|scrub-store|live-grid5000
//	          -seed n -seconds s -trace 0|1 [-work dir]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one reported metric and its unit. The two tables are
// the benchmark's whole vocabulary: every run prints every entry of the
// table its mode selects, and BENCHMARK.json lists the same names.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"frame_p50_ms", "ms"},
	{"frame_tail_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.run_s", "s"},
	{"sim.events_per_s", "1/s"},
	{"traceio.load_s", "s"},
	{"ingest.mb_per_s", "MB/s"},
	{"store.compact_s", "s"},
	{"store.open_ms", "ms"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.chunk_misses_per_frame", "count"},
	{"store.resident_bytes", "bytes"},
	{"core.newview_ms", "ms"},
	{"core.graph_ms", "ms"},
	{"aggregation.stats_miss_ratio", "ratio"},
	{"vizgraph.nodes", "count"},
	{"vizgraph.edges", "count"},
	{"vizgraph.lod_ms", "ms"},
	{"layout.stabilize_s", "s"},
	{"layout.steps", "count"},
	{"layout.residual", "px"},
	{"layout.step_ms", "ms"},
	{"render.svg_ms", "ms"},
	{"render.svg_bytes", "bytes"},
	{"server.mutate_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.frame_bytes", "bytes"},
	{"server.cache_hit_ratio", "ratio"},
	{"ui.poll_p50_ms", "ms"},
	{"stream.tick_p50_ms", "ms"},
	{"stream.tick_p99_ms", "ms"},
	{"stream.sheds", "count"},
	{"stream.frame_bytes", "bytes"},
	{"stream.dropped", "count"},
	{"stream.ops_s", "1/s"},
	{"stream.newest_lag_p50_ms", "ms"},
	{"harness.gen_late_ms", "ms"},
	{"harness.trace_overhead_pct", "%"},
	{"self.traceio_ms", "ms"},
	{"self.core_ms", "ms"},
	{"self.aggregation_ms", "ms"},
	{"self.vizgraph_ms", "ms"},
	{"self.layout_ms", "ms"},
	{"self.render_ms", "ms"},
	{"self.http_ms", "ms"},
	{"self.server_ms", "ms"},
	{"self.journey_ms", "ms"},
}

var workloads = map[string]func(*runner) error{
	"open-grid5000": runOpen,
	"scrub-heap":    func(r *runner) error { return runScrub(r, false) },
	"scrub-store":   func(r *runner) error { return runScrub(r, true) },
	"live-grid5000": runLive,
}

// setupRepeats is how many times each run sets its workload up; setup_s
// is the median.
const setupRepeats = 3

// runner carries one benchmark run: its inputs, the failures and checks
// it accumulates, and the metrics it reports.
type runner struct {
	workload string
	run      func(*runner) error
	sc       scale
	seed     int64
	seconds  time.Duration
	traced   bool
	dir      string // scratch files of this run, removed at exit
	cacheDir string // oracle references kept across runs of one build

	// t is the tracer of the traced pass, nil otherwise. Set-up is traced
	// whenever the run is, so the set-up layers show in the spans too.
	t *tracer

	attempted, failed int64
	failures          []string // descriptions of the first failures
	e2e, layer        map[string]float64
	notes             []string
}

// fail counts one failed operation and keeps its description.
func (r *runner) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check records the outcome of one oracle; a mismatch counts as a failed
// operation.
func (r *runner) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
}

func (r *runner) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// pass runs one measured phase. A traced run makes it twice: untraced
// first, for the end-to-end numbers, then traced, for the per-layer ones;
// the ratio of the two frame medians is the tracing overhead.
func (r *runner) pass(measure func(t *tracer) (frameP50 float64, err error)) error {
	base, err := measure(nil)
	if err != nil || !r.traced {
		return err
	}
	e2e := r.e2e
	r.e2e = make(map[string]float64)
	traced, err := measure(r.t)
	r.e2e = e2e
	if err != nil {
		return err
	}
	if base > 0 {
		r.layer["harness.trace_overhead_pct"] = 100 * (traced/base - 1)
	}
	return nil
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 10, "length of the measured phase in seconds")
	traceMode := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for scratch files, oracle references and spans")
	flag.Parse()

	r, err := newRunner(*workload, scales["full"], *seed, *seconds, *traceMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := r.exec(*work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func newRunner(workload string, sc scale, seed int64, seconds float64, traceMode int) (*runner, error) {
	run, ok := workloads[workload]
	if !ok || seconds <= 0 || (traceMode != 0 && traceMode != 1) {
		return nil, fmt.Errorf("bad arguments (workload %q, seconds %g, trace %d)", workload, seconds, traceMode)
	}
	r := &runner{
		workload: workload, run: run, sc: sc, seed: seed,
		seconds: time.Duration(seconds * float64(time.Second)),
		traced:  traceMode == 1,
		e2e:     make(map[string]float64), layer: make(map[string]float64),
	}
	if r.traced {
		r.t = newTracer()
	}
	return r, nil
}

// exec runs the workload with its scratch files under work and returns
// the result line.
func (r *runner) exec(work string) (*result, error) {
	abs, err := filepath.Abs(work)
	if err != nil {
		return nil, err
	}
	build, err := buildID()
	if err != nil {
		return nil, err
	}
	r.cacheDir = filepath.Join(abs, "oracle", build)
	if err := os.MkdirAll(r.cacheDir, 0o755); err != nil {
		return nil, err
	}
	r.dir, err = os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.dir)

	stampRun(r)
	if err := r.run(r); err != nil {
		return nil, err
	}
	if r.traced {
		ops := r.t.ops
		for layer, s := range r.t.selfTimes() {
			r.layer["self."+layer+"_ms"] = 1e3 * s / float64(max(ops, 1))
		}
		path := filepath.Join(abs, fmt.Sprintf("spans-%s-%d.jsonl", r.workload, r.seed))
		if err := r.t.write(path); err != nil {
			return nil, err
		}
		r.note("%d spans of %d interactions -> %s", len(r.t.spans), ops, path)
	}
	for _, n := range r.notes {
		fmt.Println("# " + n)
	}
	for _, f := range r.failures {
		fmt.Println("# FAILED: " + f)
	}
	res := &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric)}
	defs, vals := endToEnd, r.e2e
	if r.traced {
		defs, vals = perLayer, r.layer
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// buildID names the running executable by the FNV-64a of its bytes.
// Oracle references are kept under it, so only the build that wrote one
// is ever checked against it: a change that alters the output on purpose
// builds another executable and starts from a fresh reference.
func buildID() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// stampRun prints the machine and build the numbers were measured on.
func stampRun(r *runner) {
	commit := os.Getenv("BENCH_COMMIT")
	if bi, ok := debug.ReadBuildInfo(); ok && commit == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	if commit == "" {
		commit = "unknown"
	}
	stamp := map[string]any{
		"workload": r.workload, "seed": r.seed, "validation_seed": validationSeed(r.seed),
		"scale": r.sc.name, "seconds": r.seconds.Seconds(), "trace": r.traced,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
	b, _ := json.Marshal(stamp) // a map of plain values always encodes
	fmt.Println("# run " + string(b))
}

// validationSeed is the seed a claim is re-checked on: one never used
// while the change was written (see README.md).
func validationSeed(seed int64) int64 { return seed + 1000 }

// samples collects per-operation timings in milliseconds.
type samples []float64

func (s samples) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile (0 for no samples).
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := s.sorted()
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[max(0, min(i, len(c)-1))]
}

func (s samples) p50() float64 { return s.quantile(0.5) }

// tail is the highest whole percentile with at least ten samples beyond
// it; with fewer than eleven samples no such percentile exists and the
// maximum stands in. It returns the value and the percentile used.
func (s samples) tail() (float64, int) {
	p := tailPercent(len(s))
	return s.quantile(float64(p) / 100), p
}

// tailPercent is the highest whole percentile of n samples with at least
// ten beyond it, or 100 when n < 11.
func tailPercent(n int) int {
	if n < 11 {
		return 100
	}
	return int(math.Floor(100 * float64(n-10) / float64(n)))
}

// reportFrames sets frame_p50_ms and frame_tail_ms from the waits of one
// pass and notes which percentile the tail is.
func (r *runner) reportFrames(what string, s samples) float64 {
	p50 := s.p50()
	tail, pct := s.tail()
	r.e2e["frame_p50_ms"] = p50
	r.e2e["frame_tail_ms"] = tail
	r.note("%s: p50 %.3f ms, tail p%d %.3f ms over %d samples", what, p50, pct, tail, len(s))
	return p50
}

// heapMB is the live Go heap after a full collection. The second
// collection empties the sync.Pool victim caches the first one kept.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// timeSetups runs set-up setupRepeats times, reports the median as
// setup_s and returns the last set-up's state; earlier ones are released
// before the next begins.
func timeSetups[T any](r *runner, setup func() (T, func(), error)) (T, func(), error) {
	var (
		st      T
		release func()
		times   samples
	)
	n := setupRepeats
	if r.traced {
		n = 1 // the traced run reports no setup_s
	}
	for i := 0; i < n; i++ {
		if release != nil {
			release()
		}
		t0 := time.Now()
		var err error
		st, release, err = setup()
		if err != nil {
			return st, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	r.e2e["setup_s"] = times.p50()
	r.note("setup: %s s", strings.Trim(fmt.Sprintf("%.3f", []float64(times)), "[]"))
	return st, release, nil
}
