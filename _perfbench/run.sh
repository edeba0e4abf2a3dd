#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash _perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes (build
# cache, module cache, telemetry) stays under .bench_build there.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
