package rimarket_test

// BenchmarkObsOverhead pins the cost of the observability layer on the
// engine hot path: the same 1-year sparse-checkpoint run as
// BenchmarkEngineRun, with the metrics hook disabled (obs=off) and
// enabled (obs=on). BENCH.json's exact_allocs rule holds both
// sub-benchmarks to exactly the baseline allocs/op — the hook is a
// handful of atomic adds and must never allocate — and the paired
// timings document the <2% time cost the design budgets for.

import (
	"testing"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
)

func BenchmarkObsOverhead(b *testing.B) {
	it := pricing.D2XLarge()
	demand := make([]int, it.PeriodHours)
	for i := range demand {
		demand[i] = 5 + i%7
	}
	plan, err := purchasing.PlanReservations(demand, it.PeriodHours, purchasing.AllReserved{})
	if err != nil {
		b.Fatal(err)
	}
	policy := engineBenchPolicy(b, it, "sparse")

	metrics := obs.New(obs.SystemClock)
	for _, mode := range []struct {
		name string
		hook *obs.EngineMetrics
	}{
		{"obs=off", nil},
		{"obs=on", metrics.EngineHook()},
	} {
		cfg := simulate.Config{
			Instance:        it,
			SellingDiscount: 0.8,
			Metrics:         mode.hook,
		}
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := simulate.Run(demand, plan, cfg, policy); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
