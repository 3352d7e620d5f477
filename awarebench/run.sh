#!/usr/bin/env bash
# Builds awarebench from source and runs it. Run from the repository root:
#
#   bash awarebench/run.sh --workload volatile --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and each run's scratch space live under
# $CARGO_TARGET_DIR (default .bench_build) in the repository root, so a
# fresh checkout builds once and later runs reuse the cache.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off

(cd "$root/awarebench" && go build -o "$out/awarebench" .)
exec "$out/awarebench" "$@"
