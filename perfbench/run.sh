#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then
# runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload stream-columnar --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache and run scratch space all stay under
# .bench_build/ at the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

gobin=go
if ! command -v go >/dev/null 2>&1 && [ -x /usr/local/go/bin/go ]; then
	gobin=/usr/local/go/bin/go
fi

(cd "$root/perfbench" && "$gobin" build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
