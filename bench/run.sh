#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload rpc-star-charlotte --seed 1 --seconds 22 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, the binary, traces) lands in .bench_build/ under the
# current directory; nothing is fetched over the network. Without the
# repository's own sources next to bench/ the build fails and the script
# exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
