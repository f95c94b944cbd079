#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on
# (see main.go for the flags). Run it from the repository root:
#
#   bash bench/run.sh --workload sim --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and everything a run writes stay under
# .bench_build/ in the repository root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
cd "$root/bench"
go build -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
