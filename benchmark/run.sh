#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness and runs it
# with the Go build cache and temp files kept inside the checkout, so a
# run reads and writes nothing outside it. Arguments go to the harness
# unchanged; `go run ./benchmark` from the repository root is the same
# thing with the user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
