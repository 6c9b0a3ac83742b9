#!/usr/bin/env bash
# Builds the journey benchmark from the checkout it runs in and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload scrub-heap --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) in that checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/tmp"
export GOCACHE=$out/go-build GOTMPDIR=$out/tmp GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -work "$out" "$@"
