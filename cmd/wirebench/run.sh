#!/usr/bin/env bash
# Builds the benchmark from source (the module in cmd/wirebench/_src) and
# runs it with the given arguments:
#
#   bash cmd/wirebench/run.sh --workload fig8_wire64 --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The binary, the Go build cache, the go
# command's temporary files and its config writes all stay under the
# build directory ($CARGO_TARGET_DIR when set, else .bench_build), so
# nothing is written outside the checkout. A failed build exits non-zero
# without printing a result line.
set -eu

dir="${CARGO_TARGET_DIR:-.bench_build}"
case "$dir" in
/*) ;;
*) dir="$PWD/$dir" ;;
esac
mkdir -p "$dir/tmp"

export GOCACHE="$dir/gocache"
export GOMODCACHE="$dir/gomodcache"
export GOTMPDIR="$dir/tmp"
export XDG_CONFIG_HOME="$dir/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C cmd/wirebench/_src build -o "$dir/wirebench" . >&2
exec "$dir/wirebench" "$@"
