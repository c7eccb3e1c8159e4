#!/usr/bin/env bash
# Builds the doall benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash doallbench/run.sh --workload fair-grid --seed 1 --seconds 20 --trace 0
#
# Every build and run artefact (Go build cache, binary, daemon checkpoint
# logs, trace files) stays under .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
go -C doallbench build -o "$out/doallbench" .
exec "$out/doallbench" "$@"
