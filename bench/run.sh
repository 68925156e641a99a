#!/usr/bin/env bash
# run.sh builds the benchmark and runs it with the given flags, from the
# root of a checkout:
#
#   bash bench/run.sh --workload fig2-serv --seed 11 --seconds 20 --trace 0
#
# Every build product (Go build cache, temp files, the benchmark binary and
# the programs under test) stays under .bench_build in the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
    XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOFLAGS=
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
