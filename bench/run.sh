#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# (--workload, --seed, --seconds, --trace, see bench/README.md). Run it
# from the repository root. The Go build cache, the binary and every
# generated file stay under .bench_build/ in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
