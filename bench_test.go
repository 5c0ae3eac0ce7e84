package rimarket_test

// One benchmark per table and figure of the paper, each measuring the
// full regeneration of that artifact (cohort synthesis, reservation
// planning, selling runs, and the table/figure computation). The
// renderable output itself comes from `go run ./cmd/riexp -exp all`;
// these benches pin the cost of regenerating it.

import (
	"context"
	"testing"

	"rimarket"
	"rimarket/internal/analysis"
	"rimarket/internal/core"
	"rimarket/internal/experiments"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// benchConfig is the bench-scale cohort: the full pipeline shape at a
// size that keeps every bench iteration in the low milliseconds.
func benchConfig() experiments.Config {
	cfg := experiments.TestScaleConfig()
	cfg.PerGroup = 8
	return cfg
}

// benchCohort memoizes one cohort run per bench binary; the per-table
// computation on top is what distinguishes the benches that share it.
var benchCohort *experiments.CohortResult

func cohortForBench(b *testing.B) *experiments.CohortResult {
	b.Helper()
	if benchCohort == nil {
		res, err := experiments.RunCohort(context.Background(), benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		benchCohort = res
	}
	return benchCohort
}

// BenchmarkTable1Pricing regenerates Table I (the d2.xlarge price
// card's four payment options).
func BenchmarkTable1Pricing(b *testing.B) {
	it := pricing.D2XLarge()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if out := experiments.Table1(it); len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkFig2Fluctuation regenerates Fig. 2 (per-group sigma/mu
// statistics) including cohort synthesis.
func BenchmarkFig2Fluctuation(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCohort(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if groups := experiments.Fig2(res); len(groups) != 3 {
			b.Fatal("bad groups")
		}
	}
}

// BenchmarkFig3SellingCDF regenerates the three Fig. 3 panels (one per
// online algorithm) from a shared cohort run.
func BenchmarkFig3SellingCDF(b *testing.B) {
	res := cohortForBench(b)
	for _, policy := range experiments.SellingPolicies {
		b.Run(policy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sum, err := experiments.Fig3(res.Users, policy)
				if err != nil {
					b.Fatal(err)
				}
				if sum.OnlineCDF.Len() == 0 {
					b.Fatal("empty CDF")
				}
			}
		})
	}
}

// BenchmarkFig4Groups regenerates the three Fig. 4 panels (per-group
// algorithm comparison).
func BenchmarkFig4Groups(b *testing.B) {
	res := cohortForBench(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if groups := experiments.Fig4(res); len(groups) != 3 {
			b.Fatal("bad groups")
		}
	}
}

// BenchmarkTable2HighFluctUser regenerates Table II (the extreme
// volatile user's absolute costs).
func BenchmarkTable2HighFluctUser(b *testing.B) {
	res := cohortForBench(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Table2(res)
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkTable3AverageCost regenerates Table III end to end (cohort,
// planning, all seven selling runs per user, aggregation).
func BenchmarkTable3AverageCost(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunCohort(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rows := experiments.Table3(res); len(rows) != 3 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkCompetitiveBounds measures the theory module: per-catalog
// bound analysis plus adversarial worst-case measurement for A_{3T/4}
// (the numbers behind Proposition 1's headline ratio).
func BenchmarkCompetitiveBounds(b *testing.B) {
	cat := pricing.StandardLinuxUSEast()
	it := experiments.TestScaleConfig().Instance
	policy, err := core.NewA3T4(it, 0.8)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := analysis.AnalyzeCatalog(cat, core.Fraction3T4, 0.8); err != nil {
			b.Fatal(err)
		}
		if _, err := analysis.WorstMeasuredRatio(policy, 0.8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepFraction measures the checkpoint-fraction ablation
// (the paper's future-work direction) at bench scale.
func BenchmarkSweepFraction(b *testing.B) {
	cfg := benchConfig()
	cfg.PerGroup = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepFraction(context.Background(), cfg, []float64{0.25, 0.5, 0.75}); err != nil {
			b.Fatal(err)
		}
	}
}

// engineBenchPolicy builds the checkpoint shape for the engine bench
// matrix: sparse is the paper's single-checkpoint A_{3T/4}; dense is a
// 16-checkpoint multi-threshold portfolio, stressing the engine's
// checkpoint event list.
func engineBenchPolicy(b *testing.B, it pricing.InstanceType, shape string) simulate.SellingPolicy {
	b.Helper()
	switch shape {
	case "sparse":
		policy, err := core.NewA3T4(it, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		return policy
	case "dense":
		fractions := make([]float64, 16)
		for i := range fractions {
			fractions[i] = float64(i+1) / 17
		}
		policy, err := core.NewMultiThreshold(it, 0.8, fractions)
		if err != nil {
			b.Fatal(err)
		}
		return policy
	default:
		b.Fatalf("unknown checkpoint shape %q", shape)
		return nil
	}
}

// BenchmarkEngineRun isolates the hourly cost engine across the
// dimensions that stress its hot path: 1-year vs 3-year terms (the
// horizon spans one full period), sparse vs dense checkpoint
// schedules, and instance schedule recording on/off. These are the
// benches scripts/bench.sh gates against BENCH.json in CI.
func BenchmarkEngineRun(b *testing.B) {
	oneYear := pricing.D2XLarge()
	threeYear, err := pricing.ThreeYearTerm(oneYear)
	if err != nil {
		b.Fatal(err)
	}
	terms := []struct {
		name string
		it   pricing.InstanceType
	}{
		{"1y", oneYear},
		{"3y", threeYear},
	}
	for _, term := range terms {
		demand := make([]int, term.it.PeriodHours)
		for i := range demand {
			demand[i] = 5 + i%7
		}
		plan, err := purchasing.PlanReservations(demand, term.it.PeriodHours, purchasing.AllReserved{})
		if err != nil {
			b.Fatal(err)
		}
		for _, shape := range []string{"sparse", "dense"} {
			policy := engineBenchPolicy(b, term.it, shape)
			for _, sched := range []bool{false, true} {
				cfg := simulate.Config{
					Instance:        term.it,
					SellingDiscount: 0.8,
					RecordSchedules: sched,
				}
				schedName := "off"
				if sched {
					schedName = "on"
				}
				b.Run("term="+term.name+"/ckpt="+shape+"/sched="+schedName, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := simulate.Run(demand, plan, cfg, policy); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkSellingDecision isolates one A_{3T/4} checkpoint decision.
func BenchmarkSellingDecision(b *testing.B) {
	policy, err := core.NewA3T4(pricing.D2XLarge(), 0.8)
	if err != nil {
		b.Fatal(err)
	}
	ck := simulate.Checkpoint{Worked: 2000} // above the ~1744 h break-even
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if policy.ShouldSell(ck) {
			b.Fatal("unexpected sell")
		}
	}
}

// BenchmarkCohortSynthesis isolates the workload substrate: a 300-user
// cohort like the paper's, at a 60-day horizon. Synthesis is
// single-threaded and its user names bypass fmt's pooled printers, so
// its allocs/op do not depend on when the garbage collector runs;
// scripts/bench.sh gates them exactly.
func BenchmarkCohortSynthesis(b *testing.B) {
	cfg := workload.CohortConfig{PerGroup: 100, Hours: 1460, Seed: 2018}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		traces, err := workload.NewCohort(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(traces) != 300 {
			b.Fatal("bad cohort")
		}
	}
}

// BenchmarkExtensions measures the future-work comparison (randomized
// and multi-checkpoint policies) at bench scale.
func BenchmarkExtensions(b *testing.B) {
	cfg := benchConfig()
	cfg.PerGroup = 4
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Extensions(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("bad rows")
		}
	}
}

// BenchmarkPortfolioEvaluate measures the multi-service portfolio
// layer end to end.
func BenchmarkPortfolioEvaluate(b *testing.B) {
	it := experiments.TestScaleConfig().Instance
	demand := make([]int, it.PeriodHours)
	for i := range demand {
		demand[i] = 3 + i%5
	}
	services := []rimarket.PortfolioService{
		{Name: "svc-a", Instance: it, Demand: demand},
		{Name: "svc-b", Instance: it, Demand: demand},
	}
	cfg := rimarket.PortfolioConfig{
		SellingDiscount: 0.8,
		Policy: func(card rimarket.InstanceType) (rimarket.SellingPolicy, error) {
			return rimarket.NewA3T4(card, 0.8)
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rimarket.EvaluatePortfolio(services, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarketSession measures the market-dynamics session over the
// bench cohort's sell events.
func BenchmarkMarketSession(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, err := experiments.MarketSession(context.Background(), cfg, []float64{1})
		if err != nil {
			b.Fatal(err)
		}
		if points[0].Stats.Listed == 0 {
			b.Fatal("no listings")
		}
	}
}
