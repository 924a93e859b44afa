#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments. Everything it writes lands under .bench_build/ at
# the checkout root: the binary, result files, and — because GOCACHE,
# GOPATH and the Go tool's config directory are pointed there — the
# toolchain's own caches and counters too.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOPATH="$PWD/.bench_build/gopath" \
	XDG_CONFIG_HOME="$PWD/.bench_build/config" GOTOOLCHAIN=local GOFLAGS=
go build -C benchmark -o ../.bench_build/elsc-benchmark .
exec .bench_build/elsc-benchmark "$@"
