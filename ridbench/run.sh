#!/usr/bin/env bash
# Builds ridserve and the ridbench program from this checkout's sources and
# runs one workload. Run it from the repository root:
#
#   bash ridbench/run.sh --workload detect-inline --seed 1 --seconds 36 --trace 0
#
# Every build product, the Go build cache and the span dumps of traced runs
# go to .bench_build/ in the current directory; nothing is written elsewhere.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOENV=off

go build -o "$out/ridserve" ./cmd/ridserve
go -C ridbench build -o "$out/ridbench" .
exec "$out/ridbench" -ridserve "$out/ridserve" -out "$out" "$@"
