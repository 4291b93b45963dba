#!/bin/bash
# Builds the benchmark inside the checkout and runs it. Everything the
# build writes (Go build cache included) stays under .bench_build/, so a
# run touches nothing outside the checkout. Called from the repository
# root as BENCHMARK.json's command; arguments go to the program unchanged.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bench" .
cd "$root"
exec "$build/bench" "$@"
