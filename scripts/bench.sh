#!/usr/bin/env bash
# Refresh the committed benchmark baselines (BENCH_8.json and
# BENCH_10.json).
#
# Runs the BenchmarkEngineRun matrix (terms x checkpoint density x
# schedule recording), BenchmarkObsOverhead (the engine hot path with
# the obs hook off and on), BenchmarkGridSkewed (the sharded worker
# pool on uniform vs heavy-tailed grids, stealing on and off),
# BenchmarkRidServe (the rid daemon's serving hot path: sequential
# cost, p99 tail latency published as that mode's ns/op, and parallel
# throughput), and BenchmarkMillionUsers (a 100k-user aliased cohort
# through one 1-year cell on the grid's worker pool, one reused
# Scratch per worker) with -benchmem, takes the minimum over repeats,
# and writes the baseline JSON that CI's benchgate step enforces — 20%
# regression tolerance on time, and exactly-equal allocs/op for the
# ObsOverhead pair, pinning the hook's zero-alloc contract. The
# GridSkewed rows hold the scheduler's wall time on skewed grids, so a
# work-stealing regression shows up as a benchgate failure, not a slow
# sweep; the MillionUsers row holds the engine's cohort throughput at
# GOMAXPROCS (its allocs/op grow with the worker count: one Scratch
# and one completion log per worker), so a slower replay kernel or a
# pool that stops scaling trips the gate; the RidServe rows hold the
# serving envelope's cost, so a lock or allocation slipped
# into the lock-free evaluation path fails the gate rather than
# surfacing as production tail latency. One MillionUsers op is tens of
# engine-seconds of simulated time, so it repeats MU_COUNT times
# (default 2) instead of COUNT. Run on an idle machine after any
# change to internal/simulate, internal/obs, internal/ridserver, or
# the internal/experiments pool, and commit the result:
#
#   scripts/bench.sh             # writes BENCH_8.json and BENCH_10.json
#   COUNT=10 scripts/bench.sh    # more repeats, tighter minima
#   OUT=/tmp/b.json scripts/bench.sh   # write elsewhere for comparison
#
# BENCH_10.json holds BenchmarkMarketMatch: order-book matching
# throughput with one million (and one hundred thousand) listings open
# concurrently, each buy-and-relist round trip timed at a fixed op
# count so the book's depth — and the allocs/op, gated exactly in CI —
# stay deterministic. Losing the per-type heap or the absolute-hour
# event buckets costs integer factors here and trips the gate.
#
# The benchgate helper is ordinary module code (rimarket/scripts/benchgate):
# it is built by `go build ./...`, linted by `scripts/lint.sh` and the
# rilint suite, and maps its exit codes through internal/cli (0 within
# tolerance / baseline written, 1 regression or bad input, 2 usage).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${COUNT:-5}"
MU_COUNT="${MU_COUNT:-2}"
OUT="${OUT:-BENCH_8.json}"
MARKET_OUT="${MARKET_OUT:-BENCH_10.json}"

{
	go test -run '^$' -bench '^(BenchmarkEngineRun|BenchmarkObsOverhead|BenchmarkGridSkewed)$' -benchmem -count "$COUNT" . ./internal/experiments
	go test -run '^$' -bench '^BenchmarkRidServe$' -benchmem -count "$COUNT" ./internal/ridserver
	go test -run '^$' -bench '^BenchmarkMillionUsers$' -benchmem -count "$MU_COUNT" -timeout 30m ./internal/experiments
} |
	tee /dev/stderr |
	go run ./scripts/benchgate -update -baseline "$OUT"

go test -run '^$' -bench '^BenchmarkMarketMatch$' -benchmem -benchtime=50000x -count "$COUNT" ./internal/marketplace |
	tee /dev/stderr |
	go run ./scripts/benchgate -update -baseline "$MARKET_OUT" \
		-note "Marketplace order-book matching baseline; refresh with scripts/bench.sh (see EXPERIMENTS.md)."
