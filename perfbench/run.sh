#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with the
# given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload sim-hotloop --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout; no network is used.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOENV=off \
	GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
