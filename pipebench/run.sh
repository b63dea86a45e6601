#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash pipebench/run.sh --workload produce-mt --seed 1 --seconds 45 --trace 0
#
# Everything the build and the run write stays under .bench_build: the Go
# build cache, the binary, the scratch stores, reports and spans.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=
(cd pipebench && go build -o "$out/bin/pipebench" .)
exec "$out/bin/pipebench" -out "$out/out" "$@"
