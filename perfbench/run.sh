#!/usr/bin/env bash
# Builds the sweep benchmark from the checkout it is run in and runs it.
#
#   bash perfbench/run.sh --workload tables-cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every build and run artifact stays under
# .bench_build/ in that root: the Go build cache, the binary, the
# per-run result stores and the traced runs' span files.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -workdir "$build" "$@"
