#!/usr/bin/env bash
# Builds the service benchmark and the servers it drives from the source
# tree, then runs it. Run from the repository root:
#
#   bash svcbench/run.sh --workload warm_edit --seed 1 --seconds 10 --trace 0
#
# Every build output, the Go build cache and the per-run scratch
# directories stay under .bench_build in the repository root.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/bin/" ./cmd/lcmd ./cmd/lcmgate
(cd svcbench && go build -o "$build/bin/svcbench" .)
exec "$build/bin/svcbench" -root "$root" -bin "$build/bin" "$@"
