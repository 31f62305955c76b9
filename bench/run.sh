#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark — a nested Go
# module that imports the simulator one directory up — into .bench_build/
# inside the checkout, then runs it from the checkout root. Every file the
# build and the run write (Go build cache, module cache, temp dir, binary,
# result files) stays under .bench_build/, and the build reads no Go
# configuration from outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/nubabench" .
cd "$root"
exec "$build/nubabench" "$@"
