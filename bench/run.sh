#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness inside the
# checkout (Go build cache and temp files included, so nothing is read
# or written outside it) and runs it from the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build/gotmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/gotmp"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
