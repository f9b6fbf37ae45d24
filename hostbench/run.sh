#!/usr/bin/env bash
# Builds the host-clock benchmark from the checkout it sits in and runs it.
# Run from the repository root:
#
#   bash hostbench/run.sh --workload cold-miss --seed 1 --seconds 25 --trace 0
#
# Every build artifact and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/hostbench" && go build -o "$build/hostbench" .)
exec "$build/hostbench" "$@"
