#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload vsoc-emerging --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the build writes (binary, Go build
# cache, compiler temp files, the go command's config and telemetry counters)
# stays under .bench_build/ in the current directory.
set -euo pipefail

out=$(pwd)/.bench_build
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config GOPATH=$out/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd benchmark && go build -o "$out/vsoc-benchmark" .)
exec "$out/vsoc-benchmark" "$@"
