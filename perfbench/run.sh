#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout it is run from, then
# runs it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-closed --seed 1 --seconds 15 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
# Keep every file the toolchain writes (build cache, module cache, config
# and telemetry) inside the checkout, and never reach the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
