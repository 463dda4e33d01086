#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload cell500-mix --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, saved results and span traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# The benchmark module resolves urllcsim from the directory above it; outside
# a full checkout this build fails and the script exits non-zero.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -out "$out/results" "$@"
