#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the Go toolchain writes — build cache, temp
# files, the binary — stays under .bench_build/ at the checkout root, so a
# run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
cd "$here"
go build -o "$build/dpx10-benchmark" .
exec "$build/dpx10-benchmark" "$@"
