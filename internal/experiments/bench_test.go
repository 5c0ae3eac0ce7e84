package experiments

// Benchmarks for the sweep/grid hot path introduced with CohortPlan:
// the sensitivity grid and the ablation sweeps at the worker counts
// the -parallelism flag exposes, plus cached-plan variants that
// measure the marginal cost of a grid once the cohort, reservation
// plans and Keep-Reserved baselines are hoisted. Run with
//
//	go test ./internal/experiments -bench Sensitivity -benchmem
//
// and compare workers=1 (the serial seed path) against workers=4.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
)

// benchDiscounts/benchFractions are riexp's sensitivity defaults.
var (
	benchDiscounts = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	benchFractions = []float64{0.125, 0.25, 0.5, 0.75, 0.875}
	benchSweepKs   = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}
)

// BenchmarkSensitivityGrid measures the full driver — cohort
// synthesis, planning, baselines and the 25-cell grid — at increasing
// worker counts on the test-scale config.
func BenchmarkSensitivityGrid(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		cfg := TestScaleConfig()
		cfg.Parallelism = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Sensitivity(context.Background(), cfg, benchDiscounts, benchFractions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSensitivityGridCachedPlan measures only the per-grid cost
// on a shared plan: planning and baselines are cached, so each
// iteration pays for the 25 cells alone.
func BenchmarkSensitivityGridCachedPlan(b *testing.B) {
	for _, workers := range []int{1, 4} {
		cfg := TestScaleConfig()
		cfg.Parallelism = workers
		plan, err := NewCohortPlan(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.KeepStats(context.Background(), plan.engineConfig()); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := plan.Sensitivity(context.Background(), benchDiscounts, benchFractions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepFraction measures the sweep-k driver end to end.
func BenchmarkSweepFraction(b *testing.B) {
	for _, workers := range []int{1, 4} {
		cfg := TestScaleConfig()
		cfg.Parallelism = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := SweepFraction(context.Background(), cfg, benchSweepKs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSweepFractionCachedPlan isolates the per-sweep marginal
// cost on a shared plan.
func BenchmarkSweepFractionCachedPlan(b *testing.B) {
	cfg := TestScaleConfig()
	cfg.Parallelism = 4
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := plan.KeepStats(context.Background(), plan.engineConfig()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.SweepFraction(context.Background(), benchSweepKs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKeepStatsCachedPlan isolates the engine inside the grid
// substrate: on a cached CohortPlan, KeepStats is a pure fan-out of
// Scratch.Totals over the cohort, so its time and allocation profile is
// the engine's — the cost every additional grid cell pays. The cache
// is cleared each iteration by using a fresh engine config edge: we
// rebuild the plan outside the timer and benchmark one full cohort of
// engine runs per iteration.
func BenchmarkKeepStatsCachedPlan(b *testing.B) {
	cfg := TestScaleConfig()
	cfg.Parallelism = 1
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	engCfg := plan.engineConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.mu.Lock()
		plan.keeps = make(map[pricing.InstanceType][]KeepStat)
		plan.mu.Unlock()
		if _, err := plan.KeepStats(context.Background(), engCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCohortPlan measures the substrate every driver now shares:
// cohort synthesis plus reservation planning.
func BenchmarkCohortPlan(b *testing.B) {
	for _, workers := range []int{1, 4} {
		cfg := TestScaleConfig()
		cfg.Parallelism = workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewCohortPlan(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineKernels races the two engine kernels on one input:
// the aliased 100k-user, 1-year cohort of the root BenchmarkMillionUsers
// (64 distinct demand patterns shared across users, all-reserved
// plans, A_{3T/4} at a = 0.8). kernel=scratch is the grid's path, one
// Scratch.Totals per user over the worker pool with one reused Scratch
// per worker; kernel=batch is simulate.RunBatchTotals. Each runs at
// parallelism 1 and NumCPU, and reports time, bytes and allocations
// per user-year. It is the measurement the one-engine decision rests
// on:
//
//	go test ./internal/experiments -run '^$' -bench EngineKernels -benchtime 1x
func BenchmarkEngineKernels(b *testing.B) {
	it := pricing.D2XLarge() // 1-year card: 8760-hour period
	const users = 100_000
	const patterns = 64
	demands := make([][]int, patterns)
	plans := make([][]int, patterns)
	for p := range demands {
		d := make([]int, it.PeriodHours)
		for t := range d {
			d[t] = (t*(p+1) + p) % 9
			if t > it.PeriodHours/2+p*50 {
				d[t] = 0
			}
		}
		plan, err := purchasing.PlanReservations(d, it.PeriodHours, purchasing.AllReserved{})
		if err != nil {
			b.Fatal(err)
		}
		demands[p], plans[p] = d, plan
	}
	cohort := make([]simulate.BatchUser, users)
	for i := range cohort {
		cohort[i] = simulate.BatchUser{Demand: demands[i%patterns], NewRes: plans[i%patterns]}
	}
	a3, err := core.NewA3T4(it, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	var policy simulate.SellingPolicy = a3 // boxed once, as a grid cell's
	cfg := simulate.Config{Instance: it, SellingDiscount: 0.8}
	ctx := context.Background()

	kernels := []struct {
		name string
		run  func(par int) error
	}{
		{"scratch", func(par int) error {
			out := make([]simulate.BatchTotal, users)
			scratch := make([]simulate.Scratch, workerCount(par, users))
			_, _, err := runShardedDone(ctx, par, users, func(w, i int) error {
				tot, err := scratch[w].Totals(cohort[i].Demand, cohort[i].NewRes, cfg, policy)
				out[i] = tot
				return err
			})
			return err
		}},
		{"batch", func(par int) error {
			_, err := simulate.RunBatchTotals(ctx, cohort, cfg, policy, simulate.BatchOptions{Parallelism: par})
			return err
		}},
	}
	for _, k := range kernels {
		for _, par := range []int{1, runtime.NumCPU()} {
			b.Run(fmt.Sprintf("kernel=%s/par=%d", k.name, par), func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := k.run(par); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				userYears := float64(b.N) * users
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/userYears, "ns/user-year")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/userYears, "B/user-year")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/userYears, "allocs/user-year")
			})
		}
	}
}
