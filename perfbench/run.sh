#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root. Build output and the Go build cache stay
# in .bench_build/ inside the checkout.
set -euo pipefail
root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --spec "$root/BENCHMARK.json" "$@"
