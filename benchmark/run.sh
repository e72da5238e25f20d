#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on. It is what BENCHMARK.json names as the command, and is run from the
# root of a checkout. Everything it writes (Go build cache, binary) goes
# under .bench_build in that checkout.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
# Keep everything the go command writes (build cache, GOPATH, its own
# telemetry counters under the user config dir) inside the checkout, and
# keep it off the network.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/oak-benchmark" .
exec "$build/oak-benchmark" "$@"
