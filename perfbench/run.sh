#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root. The Go build cache and temporary files stay inside
# .bench_build, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}/gocache" "${build}/tmp"
export GOCACHE="${build}/gocache" GOTMPDIR="${build}/tmp" TMPDIR="${build}/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C perfbench build -o "${build}/perfbench" .
exec "${build}/perfbench" -root "${root}" "$@"
