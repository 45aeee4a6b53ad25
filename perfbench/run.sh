#!/usr/bin/env bash
# Builds the benchmark against the sources of the checkout it sits in and
# runs one workload. Every build and run artifact stays under .bench_build:
#
#   bash perfbench/run.sh --workload sweep|serve-hot|serve-cold --seed N --seconds N --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
