#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash _perfbench/run.sh --workload sysbench-storm --seed 1 --seconds 20 --trace 0
#
# Run from the root of the checkout. Everything it writes (Go build cache,
# binary, spans, profiles) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/_perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" --out "$out/perfbench-trace" "$@"
