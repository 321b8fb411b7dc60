#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given: what BENCHMARK.json's "command" calls. The build cache and
# the binary live under .bench_build/, so nothing is written outside the
# checkout and nothing is fetched (the tree builds offline from vendor/).
# By hand, `go run ./bench ...` does the same.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
