#!/usr/bin/env bash
# The microbenchmark gate, and the only list of gated benchmarks:
#
#   scripts/bench.sh           # check this machine against BENCH.json
#   scripts/bench.sh -update   # rewrite BENCH.json's rows from the same run
#
# CI runs the check. After an intentional engine, scheduler, planner, market or
# serving change, refresh on an idle machine and commit BENCH.json. The
# gate policy (allocs and time tolerances, exact-alloc rows) lives in
# BENCH.json's header; scripts/benchgate applies it to the minimum over
# repeats and exits 0 within tolerance or on a written baseline, 1 on a
# regression or bad input, 2 on misuse.
#
# Each benchmark's doc comment says what its rows guard;
# SensitivityGridCachedPlan holds a whole grid's wall time, trunks and
# resumed cells, on a cached plan; ColdCohortPlan and RatioAuditCold
# hold a cold paper-scale plan and audit, whose synthesis overlaps their
# planning on the second core; MarketScenario holds a paper-scale
# three-card market session, whose allocs/op are not exact because
# per-worker buffer growth depends on scheduling; MarketSession holds
# the riexp -exp market path (a cold test-scale plan and a one-rate,
# one-card session), whose allocs/op are not exact for the same reason
# as the cold plan's; CohortSynthesis is
# single-threaded and GridSkewed runs a fixed four workers off one
# shared cursor, so their allocs/op are exact. MillionUsers
# takes seconds per op, so it repeats twice; MarketMatch runs a fixed op
# count so the book's depth, and so its allocs/op, are deterministic.
#
# Every line runs at -cpu 2, the GOMAXPROCS the rows were recorded at:
# MillionUsers runs one worker per CPU and its allocs/op grow with the
# worker count, so another CPU count would move the verdict with no code
# change.
set -euo pipefail
cd "$(dirname "$0")/.."

case "$*" in
'' | -update) ;;
*) echo "usage: scripts/bench.sh [-update]" >&2 && exit 2 ;;
esac

{
	go test -run '^$' -bench '^(BenchmarkEngineRun|BenchmarkObsOverhead|BenchmarkGridSkewed|BenchmarkSensitivityGridCachedPlan|BenchmarkDecisions|BenchmarkColdCohortPlan|BenchmarkRatioAuditCold|BenchmarkMarketScenario|BenchmarkMarketSession)$' -benchmem -cpu 2 -count 5 . ./internal/experiments
	go test -run '^$' -bench '^(BenchmarkLoadEC2LogDir|BenchmarkLoadColtDir)$' -benchmem -cpu 2 -count 5 ./internal/gtrace
	go test -run '^$' -bench '^BenchmarkRidServe$' -benchmem -cpu 2 -count 5 ./internal/ridserver
	go test -run '^$' -bench '^BenchmarkMillionUsers$' -benchmem -cpu 2 -count 2 -timeout 30m ./internal/experiments
	go test -run '^$' -bench '^BenchmarkMarketMatch$' -benchmem -cpu 2 -benchtime=50000x -count 3 ./internal/marketplace
	go test -run '^$' -bench '^(BenchmarkMeasuredRatio|BenchmarkAuditInstance)$' -benchmem -cpu 2 -count 5 ./internal/analysis
	go test -run '^$' -bench '^BenchmarkPlanReservations$' -benchmem -cpu 2 -count 5 ./internal/purchasing
	go test -run '^$' -bench '^BenchmarkCohortSynthesis$' -benchmem -cpu 2 -count 5 .
} |
	tee /dev/stderr |
	go run ./scripts/benchgate "$@"
