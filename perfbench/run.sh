#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload spotify --seed 1 --seconds 35 --trace 0
#
# The Go build cache, module cache and toolchain state are kept under
# .bench_build so a run reads and writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/home" "$build/gocache" "$build/gomodcache"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
