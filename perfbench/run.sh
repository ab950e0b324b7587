#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through (--workload, --seed, --seconds, --trace). Run it from the root
# of the repository:
#
#   bash perfbench/run.sh --workload hot-flows --seed 1 --seconds 8 --trace 0
#
# Build products and the Go build cache live under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp
export GOFLAGS=-mod=readonly GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
