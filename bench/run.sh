#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds ./bench into
# .bench_build/ inside the checkout and runs it with the driver's arguments.
# Everything the go tool writes — build cache, temp files — stays inside the
# checkout, and nothing is fetched: the module has no dependencies.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
