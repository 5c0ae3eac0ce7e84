#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
#
# The Go build cache lives in .bench_build too, so the benchmark reads and
# writes nothing outside the checkout; the first build compiles the
# standard library into it. Outside a full checkout (no ../go.mod for the
# replace directive) the build fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$root/.bench_build/perfbench" .)
exec "$root/.bench_build/perfbench" "$@"
