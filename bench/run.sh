#!/usr/bin/env bash
# Builds the repository benchmark from the checkout this script sits in
# and runs it from the checkout root, passing every argument through:
#
#   bash bench/run.sh --workload kv-hot --seed 1 --seconds 10 --trace 0
#
# The Go build cache, module cache and tool config all live under
# .bench_build/ in the checkout, so nothing is written outside it and the
# build works offline (the module has no dependencies beyond the
# repository itself).
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
