#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with the
# given arguments, from the repository root:
#
#   bash gatesbench/run.sh --workload inproc_fanin --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write (binary, Go build cache, Go's
# temporary and config directories, span files) stays under .bench_build in
# the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go -C "$root/gatesbench" build -o "$out/gatesbench" . >&2
exec "$out/gatesbench" "$@"
