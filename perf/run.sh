#!/usr/bin/env bash
# Builds actperf from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash perf/run.sh --workload monitor-steady --seed 1 --seconds 10 --trace 0
#
# Every cache, temporary file and config the Go toolchain would write
# goes under .bench_build, so nothing outside the checkout is touched.
# The build needs the act module one directory up; without it the build
# fails and the script exits non-zero before printing a result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go -C perf build -o "$build/actperf" ./cmd/actperf
exec "$build/actperf" "$@"
