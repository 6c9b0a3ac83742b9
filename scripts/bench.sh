#!/bin/sh
# bench.sh — run the layout, aggregation, fault, obs, ingest, sim,
# store and stream benchmark suites and record the results as
# BENCH_layout.json, BENCH_aggregation.json, BENCH_fault.json,
# BENCH_obs.json, BENCH_ingest.json, BENCH_sim.json, BENCH_store.json
# and BENCH_stream.json (name, ns/op, allocs/op, bytes/op), the perf
# trajectories future PRs compare against. Each run
# also appends one line per suite to BENCH_history.jsonl, so the
# trajectory stays queryable across PRs even though the BENCH_*.json
# files are overwritten wholesale.
#
# Usage:
#   scripts/bench.sh [benchtime] [pattern]
#
#   benchtime  go test -benchtime value (default 1x: one iteration per
#              benchmark, a smoke run; use e.g. 2s for stable numbers)
#   pattern    -bench regexp overriding ALL suites' defaults (the output
#              still lands in every file, filtered by where it ran)
#
# BENCH_SUITES, when set, limits the run to a space-separated subset of
# suite names (layout aggregation fault obs ingest sim store stream), so
# one suite can be regenerated without rewriting the others' files:
#   BENCH_SUITES=stream scripts/bench.sh 2s
#
# BENCH_COUNT (default 1) runs every benchmark that many times (go test
# -count). Each recorded figure is then the median of the runs, and
# ns_min/ns_max give the spread of ns/op:
#   BENCH_COUNT=5 BENCH_SUITES=layout scripts/bench.sh 1s
#
# Compare mode checks one recorded file against another:
#   scripts/bench.sh compare OLD.json NEW.json
# For every benchmark both files hold, it prints an allocs/op rise, and
# an ns/op change only when the new median falls outside OLD's recorded
# ns_min..ns_max (its median alone when OLD has no spread). It exits 1
# when any allocs/op rose: allocs/op is the stable gate, ns/op the
# noisy one.
set -eu

# compare OLD NEW — see the usage above.
compare() {
    awk '
# field returns the value of "key": in one benchmark line, "" if absent.
function field(line, key) {
    if (!match(line, "\"" key "\": [^,}]+")) return ""
    v = substr(line, RSTART + length(key) + 4, RLENGTH - length(key) - 4)
    gsub(/"/, "", v)
    return v
}
/"name":/ {
    name = field($0, "name")
    if (FNR == NR) {
        ns[name] = field($0, "ns_per_op")
        lo[name] = field($0, "ns_min"); if (lo[name] == "") lo[name] = ns[name]
        hi[name] = field($0, "ns_max"); if (hi[name] == "") hi[name] = ns[name]
        allocs[name] = field($0, "allocs_per_op")
        next
    }
    if (!(name in ns)) next
    shared++
    a = field($0, "allocs_per_op")
    if (a != "null" && allocs[name] != "null" && a + 0 > allocs[name] + 0) {
        printf "%s: allocs/op %s -> %s\n", name, allocs[name], a
        rose++
    }
    n = field($0, "ns_per_op")
    if (n + 0 < lo[name] + 0 || n + 0 > hi[name] + 0)
        printf "%s: ns/op %s -> %s (%+.1f%%), outside %s..%s\n", name, ns[name], n,
            100 * (n - ns[name]) / ns[name], lo[name], hi[name]
}
END {
    printf "%d shared benchmarks, %d allocs/op rises\n", shared, rose
    exit rose > 0
}
' "$1" "$2"
}

if [ "${1:-}" = compare ]; then
    if [ $# -ne 3 ]; then
        echo "usage: scripts/bench.sh compare OLD.json NEW.json" >&2
        exit 2
    fi
    compare "$2" "$3"
    exit
fi

cd "$(dirname "$0")/.."

BENCHTIME="${1:-1x}"
COUNT="${BENCH_COUNT:-1}"
# The layout suite tracks per-step cost (naive, Barnes-Hut at 1-2 workers) and
# the whole-layout convergence race: BenchmarkLayoutMultilevel vs
# BenchmarkLayoutFlatConverge report ms-to-conv (wall-clock cold seed to
# residual < eps), the multilevel speedup headline.
LAYOUT_PATTERN="${2:-BenchmarkLayout|BenchmarkAggregateDisaggregate|BenchmarkAblationTheta}"
# The aggregation suite also carries BenchmarkServeGraph: one uncached
# /api/graph frame of the Grid'5000 leaf view (rebuild plus encode).
AGG_PATTERN="${2:-BenchmarkSliceScrub|BenchmarkVizgraphBuild|BenchmarkServeGraph|BenchmarkFig2TemporalAggregation|BenchmarkFig3SpatialAggregation|BenchmarkFig9Animation|BenchmarkSummarise}"
# The fault suite includes Fig6 so the healthy-path overhead of the fault
# subsystem is visible against the same-workload baseline in one file.
FAULT_PATTERN="${2:-BenchmarkEngineWithFaults|BenchmarkFig6NASDTSequential}"
OBS_PATTERN="${2:-BenchmarkObs}"
INGEST_PATTERN="${2:-BenchmarkPajeRead|BenchmarkNativeRead|BenchmarkTokenize}"
# The sim suite tracks the engine hot loop: the Fig6 NAS-DT run (the
# allocs/op trajectory the hot-path overhaul is pinned against) and the
# 1k/10k/100k-host scaling family, which times Engine.Run alone and
# reports events/sec and its set-up apart (setup-ns/op).
SIM_PATTERN="${2:-BenchmarkFig6NASDTSequential|BenchmarkEngineScaling}"
# The store suite tracks the out-of-core columnar store: compaction
# throughput (MB/s) and cold/warm windowed-query latency, with the
# cold benchmark also reporting a resident-heap gauge (heap-bytes)
# against a trace ~60x larger than its chunk cache.
STORE_PATTERN="${2:-BenchmarkStoreCompact|BenchmarkStoreQuery}"
# The stream suite tracks the live broadcast layer: fan-out publish
# latency at 1k/5k/10k subscribers (p99-push-ms, events/sec) and one
# publisher tick over a prepared batch (apply, window, encode, publish).
STREAM_PATTERN="${2:-BenchmarkStreamFanout|BenchmarkPublisherTick}"

# The machine and commit every history line is stamped with: a number
# means little without the Go version, CPU count, GOMAXPROCS and source
# it was measured on. A tree with uncommitted changes is marked -dirty.
GO_VERSION="$(go env GOVERSION)"
NPROC="$(nproc)"
MAXPROCS="${GOMAXPROCS:-$NPROC}"
COMMIT=unknown
if c="$(git rev-parse --short HEAD 2>/dev/null)"; then
    COMMIT="$c"
    git diff --quiet HEAD || COMMIT="$c-dirty"
fi

# bench_objects RAW — convert `go test -bench` output lines like
#   BenchmarkFoo/n=1024/p=2-2   123   456789 ns/op   10 B/op   2 allocs/op
# into one JSON object per benchmark, one per line, in first-run order.
# A benchmark run several times (-count) records the median of each
# figure, and ns_min/ns_max.
bench_objects() {
    awk '
BEGIN {
    split("ns/op B/op allocs/op events/sec heap-bytes p99-push-ms ms-to-conv steps setup-ns/op", unit, " ")
    split("ns_per_op bytes_per_op allocs_per_op events_per_sec heap_bytes p99_push_ms ms_to_converged steps_to_converged setup_ns_per_op", key, " ")
}
/^Benchmark/ && /ns\/op/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    if (!(name in runs)) order[++names] = name
    r = ++runs[name]
    for (i = 2; i <= NF; i++)
        for (u = 1; u <= 9; u++)
            if ($i == unit[u]) val[name, u, r] = $(i-1)
}
# median sets lo and hi too; "null" when no run reported the figure.
# It returns the figures as go test printed them (awk would reformat
# large numbers).
function median(name, u,    n, r, j, v, a, t) {
    n = 0
    for (r = 1; r <= runs[name]; r++) {
        if (!((name, u, r) in val)) continue
        v = val[name, u, r]
        for (j = n; j > 0 && a[j] > v + 0; j--) { a[j+1] = a[j]; t[j+1] = t[j] }
        a[j+1] = v + 0; t[j+1] = v; n++
    }
    if (n == 0) return "null"
    lo = t[1]; hi = t[n]
    return t[int((n + 1) / 2)]
}
END {
    for (k = 1; k <= names; k++) {
        name = order[k]
        ns = median(name, 1); nslo = lo; nshi = hi
        printf "{\"name\": \"%s\", \"ns_per_op\": %s", name, ns
        if (runs[name] > 1) printf ", \"ns_min\": %s, \"ns_max\": %s", nslo, nshi
        printf ", \"bytes_per_op\": %s, \"allocs_per_op\": %s", median(name, 2), median(name, 3)
        for (u = 4; u <= 9; u++)
            if ((v = median(name, u)) != "null") printf ", \"%s\": %s", key[u], v
        printf "}\n"
    }
}
' "$1"
}

# to_json RAW OUT — write the benchmarks in RAW as the committed JSON
# trajectory file OUT, and append the same results as one {"time",
# "suite", "benchtime", "go", "nproc", "gomaxprocs", "commit",
# "benchmarks"} line to BENCH_history.jsonl.
to_json() {
    objs="$(bench_objects "$1")"
    {
        printf '{\n  "machine": {"go": "%s", "nproc": %s, "gomaxprocs": %s, "commit": "%s", "benchtime": "%s", "count": %s},\n' \
            "$GO_VERSION" "$NPROC" "$MAXPROCS" "$COMMIT" "$BENCHTIME" "$COUNT"
        printf '  "benchmarks": [\n'
        [ -n "$objs" ] && printf '%s\n' "$objs" | sed 's/^/    /; $!s/$/,/'
        printf '  ]\n}\n'
    } > "$2"
    echo "wrote $2 ($(grep -c '"name"' "$2") benchmarks)" >&2

    suite="${2#BENCH_}"; suite="${suite%.json}"
    printf '{"time": "%s", "suite": "%s", "benchtime": "%s", "count": %s, "go": "%s", "nproc": %s, "gomaxprocs": %s, "commit": "%s", "benchmarks": [%s]}\n' \
        "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$suite" "$BENCHTIME" "$COUNT" "$GO_VERSION" "$NPROC" "$MAXPROCS" "$COMMIT" \
        "$(printf '%s\n' "$objs" | awk 'NF { if (n++) printf ", "; printf "%s", $0 }')" >> BENCH_history.jsonl
}

SUITES="${BENCH_SUITES:-layout aggregation fault obs ingest sim store stream}"
want() { case " $SUITES " in *" $1 "*) return 0 ;; *) return 1 ;; esac; }

RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

if want layout; then
    echo "running layout suite (-benchtime=$BENCHTIME, -bench='$LAYOUT_PATTERN') ..." >&2
    # -timeout 60m: the convergence races (FlatConverge at n=20000 in
    # particular) run whole cold layouts per iteration — that slowness is
    # the measurement, not a hang.
    go test -run '^$' -bench "$LAYOUT_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 60m . | tee "$RAW" >&2
    to_json "$RAW" BENCH_layout.json
fi

if want aggregation; then
    echo "running aggregation suite (-benchtime=$BENCHTIME, -bench='$AGG_PATTERN') ..." >&2
    go test -run '^$' -bench "$AGG_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . ./internal/aggregation | tee "$RAW" >&2
    to_json "$RAW" BENCH_aggregation.json
fi

if want fault; then
    echo "running fault suite (-benchtime=$BENCHTIME, -bench='$FAULT_PATTERN') ..." >&2
    go test -run '^$' -bench "$FAULT_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$RAW" >&2
    to_json "$RAW" BENCH_fault.json
fi

if want obs; then
    echo "running obs suite (-benchtime=$BENCHTIME, -bench='$OBS_PATTERN') ..." >&2
    go test -run '^$' -bench "$OBS_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/obs | tee "$RAW" >&2
    to_json "$RAW" BENCH_obs.json
fi

if want ingest; then
    echo "running ingest suite (-benchtime=$BENCHTIME, -bench='$INGEST_PATTERN') ..." >&2
    go test -run '^$' -bench "$INGEST_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/paje ./internal/trace ./internal/ingest | tee "$RAW" >&2
    to_json "$RAW" BENCH_ingest.json
fi

if want sim; then
    echo "running sim suite (-benchtime=$BENCHTIME, -bench='$SIM_PATTERN') ..." >&2
    go test -run '^$' -bench "$SIM_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 30m . | tee "$RAW" >&2
    to_json "$RAW" BENCH_sim.json
fi

if want store; then
    echo "running store suite (-benchtime=$BENCHTIME, -bench='$STORE_PATTERN') ..." >&2
    go test -run '^$' -bench "$STORE_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" ./internal/store | tee "$RAW" >&2
    to_json "$RAW" BENCH_store.json
fi

if want stream; then
    echo "running stream suite (-benchtime=$BENCHTIME, -bench='$STREAM_PATTERN') ..." >&2
    go test -run '^$' -bench "$STREAM_PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" -timeout 30m ./internal/stream | tee "$RAW" >&2
    to_json "$RAW" BENCH_stream.json
fi
