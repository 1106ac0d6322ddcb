#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root (Go's build cache included, so nothing is
# written outside the checkout) and runs it from there with the given flags.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
# The run header names the commit. Go's own VCS stamping is off because it
# fails the build where git cannot read the checkout.
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && ! git diff --quiet HEAD 2>/dev/null; then commit+=+dirty; fi
go build -C benchmark -buildvcs=false -ldflags "-X main.commit=$commit" -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
