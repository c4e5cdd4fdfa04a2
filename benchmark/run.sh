#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it with the
# given arguments. Everything the build and the run leave behind — the Go
# build cache, the binary, member files, checkpoints, span files — goes under
# .bench_build at the root of the checkout, and nothing outside the checkout
# is written.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -C "$root/benchmark" -o "$build/senkf-benchmark" .
cd "$root"
exec "$build/senkf-benchmark" "$@"
