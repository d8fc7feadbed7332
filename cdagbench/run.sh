#!/usr/bin/env bash
# Builds the benchmark and cdagd from the checkout this script lives in, then
# runs the benchmark with the given arguments:
#
#   bash cdagbench/run.sh --workload iolb-suite --seed 1 --seconds 25 --trace 0
#   bash cdagbench/run.sh compare before.jsonl after.jsonl
#
# Every build product, Go cache and scratch file stays under .bench_build/ in
# the checkout root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$here"
go build -o "$build/bin/cdagbench" .
go build -o "$build/bin/cdagd" cdagio/cmd/cdagd
cd "$root"
exec "$build/bin/cdagbench" -root "$root" -cdagd "$build/bin/cdagd" -work "$build/work" "$@"
