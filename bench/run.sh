#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given,
# from the root of a checkout:
#
#   bash bench/run.sh --workload sat8 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go's build cache, temporary
# files, the binary, cache directories primed during set-up) goes under
# .bench_build in the checkout, which .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$here" -o "$build/gathernoc-bench" .
exec "$build/gathernoc-bench" "$@"
