#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload store-resume --seed 1 --seconds 30 --trace 0
#
# The Go build cache, the Go configuration directory (telemetry counters) and
# the binary live in .bench_build/ at the root, so the build writes nothing
# outside the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/benchmark" && go build -o "$out/benchmark" .) >&2
exec "$out/benchmark" "$@"
