#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments. Everything the build writes (Go's build and module
# caches, the binary) stays under .bench_build/ in the current directory,
# which is the root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/janus-benchmark" .) >&2
# The time just before exec: setup_s counts from here (see execEnv in run.go).
JANUS_BENCH_EXEC_NS="$(date +%s%N)" exec "$build/janus-benchmark" "$@"
