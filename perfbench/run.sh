#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload zipf-read --seed 1 --seconds 20 --trace 0
#
# Every build and run output stays inside the checkout, under
# $CARGO_TARGET_DIR (default .bench_build): the Go build cache, the
# binary, and the traced runs' span files.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/home"

export HOME="$build/home" XDG_CONFIG_HOME="$build/home" XDG_CACHE_HOME="$build/home"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$build/perfbench" .
exec "$build/perfbench" --spans-dir "$build/spans" "$@"
