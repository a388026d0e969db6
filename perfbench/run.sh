#!/usr/bin/env bash
# Builds the benchmark from this source tree and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the traced runs' span files all stay
# under .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
