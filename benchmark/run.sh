#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash benchmark/run.sh --workload eval-full --seed 1 --seconds 10 --trace 0
#
# Every build artifact (binary, Go build cache, temp files) stays under
# .bench_build/ in the repository root, so a run reads and writes nothing
# outside the checkout. The module links the simulator through a
# `replace safespec => ../` directive and needs no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOSUMDB=off

(cd "$root/benchmark" && go build -o "$out/safespec-benchmark" .)
exec "$out/safespec-benchmark" "$@"
