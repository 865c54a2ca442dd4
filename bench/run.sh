#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root, for example:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache, the build's temporary files and trace
# files go to .bench_build/ in the repository root, so nothing is written
# outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd bench && go build -o "$out/fastsched-bench" .)
exec "$out/fastsched-bench" "$@"
