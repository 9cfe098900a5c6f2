#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#   bash perfbench/run.sh --workload convoy --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build outputs, the Go build cache, span
# files and checkpoint scratch all stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
