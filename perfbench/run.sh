#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper_stochastic --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh -suite -o results.json
#   bash perfbench/run.sh -compare a.json b.json
#
# Everything the build and the run write (Go build cache, binary, trace
# inputs) stays under the build directory, $CARGO_TARGET_DIR when set,
# else .bench_build.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" HOME="$build/config"
export GOFLAGS="" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOENV=off GOTELEMETRY=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" -work "$build/work" "$@"
