#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, for example:
#
#   bash perfbench/run.sh --workload mushroom --seed 1 --seconds 15 --trace 0
#
# The build cache and the binary live in .bench_build/ under the current
# directory, so the benchmark writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
