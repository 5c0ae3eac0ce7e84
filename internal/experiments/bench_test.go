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
// on a shared plan: planning is cached, so each iteration pays for the
// grid alone — one Keep-Reserved trunk per user and the 25 cells
// resumed from it. scripts/bench.sh gates its time at -cpu 2.
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
// Keep-Reserved trunks over the cohort, so its time and allocation
// profile is the engine's — the cost every grid's trunks pay per card. The cache
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

// BenchmarkMillionUsers pushes a 100k-user cohort through one 1-year
// sweep cell as full replays, without a grid's shared trunks: one
// Scratch.Totals per user over the worker pool at GOMAXPROCS, one
// reused Scratch per worker. The
// cohort aliases 64 distinct year-long demand patterns (all-reserved
// plans, A_{3T/4} at a = 0.8) across all users, so the input costs 64
// traces of memory while the engine still replays every user through
// every hour. Besides the gated ns/op it reports users/sec, simulated
// instance-hours/sec, and time, bytes and allocations per user-year.
// It has no sub-benchmarks, so the gated row name stays fixed; -cpu 1
// gives the single-core figure:
//
//	go test ./internal/experiments -run '^$' -bench MillionUsers -benchtime 1x -cpu 1
func BenchmarkMillionUsers(b *testing.B) {
	it := pricing.D2XLarge() // 1-year card: 8760-hour period
	const users = 100_000
	const patterns = 64
	demands := make([][]int, patterns)
	plans := make([][]int, patterns)
	for p := range demands {
		d := make([]int, it.PeriodHours)
		for t := range d {
			// Varied phase and amplitude per pattern, with idle tails
			// so the selling policy actually fires for some users.
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
	a3, err := core.NewA3T4(it, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	var policy simulate.SellingPolicy = a3 // boxed once, as a grid cell's
	cfg := simulate.Config{Instance: it, SellingDiscount: 0.8}
	ctx := context.Background()

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		workers := workerCount(0, users)
		scratch := make([]simulate.Scratch, workers)
		sold := make([]int, workers)
		_, err := runPool(ctx, 0, users, func(w, u int) error {
			tot, err := scratch[w].Totals(demands[u%patterns], plans[u%patterns], cfg, policy)
			sold[w] += tot.Sold
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		total := 0
		for _, n := range sold {
			total += n
		}
		if total == 0 {
			b.Fatal("the cohort sold nothing; the policy never fired")
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	secs := b.Elapsed().Seconds()
	userYears := float64(b.N) * users
	if secs > 0 {
		b.ReportMetric(userYears/secs, "users/sec")
		b.ReportMetric(userYears*float64(it.PeriodHours)/secs, "hours/sec")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/userYears, "ns/user-year")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/userYears, "B/user-year")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/userYears, "allocs/user-year")
}
