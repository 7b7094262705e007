#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root; every argument goes to the benchmark:
#
#   bash secbench/run.sh --workload dlrm-serve --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and the benchmark's results stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the repository.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

# Everything the go command writes (build cache, module cache, temporary
# files, its telemetry counters under the user config directory) lands in
# the build directory; it never downloads a toolchain or module.
export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath GOTMPDIR=$build/tmp
export XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/secbench" && go build -o "$build/secbench" .) >&2
exec "$build/secbench" --out "$build/secbench-out" "$@"
