#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. The go tool's caches and
# its configuration directory are pointed there too, so nothing is read or
# written outside the checkout. Run from anywhere: bash bench/run.sh --help
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local
commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
go build -C "$here" -ldflags "-X main.commit=$commit" -o "$out/s2perf" .
exec "$out/s2perf" "$@"
