#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, e.g.:
#
#   bash cmd/bench/run.sh --workload repro-191 --seed 1 --seconds 12 --trace 0
#
# Build outputs, including the Go build cache, go to $CARGO_TARGET_DIR
# (default .bench_build) under the current directory, so a run reads
# and writes nothing outside the checkout except the Go toolchain.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false

(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
