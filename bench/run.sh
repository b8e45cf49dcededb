#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything the build writes (Go build cache, the
# binary) lands under .bench_build/ at the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/go-path" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/profipy-bench" .
exec "$root/.bench_build/profipy-bench" -root "$root" "$@"
