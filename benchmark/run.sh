#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. The driver calls this from the root of a checkout:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# The binary and the Go build cache live under .bench_build in the checkout,
# so nothing is read or written outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
# With a warm cache this is a no-op link check; the first call in a checkout
# compiles the repository and the standard library.
(cd "$here" && go build -o "$build/sdimm-benchmark" .)
cd "$root"
exec "$build/sdimm-benchmark" "$@"
