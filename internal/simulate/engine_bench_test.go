package simulate

import (
	"testing"

	"rimarket/internal/pricing"
)

// benchWorkload is the in-package twin of the root BenchmarkEngineRun
// 1-year case, shared by the optimized/reference pair below so the
// speedup of the event-scheduled engine over the per-hour-sort engine
// is measurable in one place:
//
//	go test ./internal/simulate -bench 'BenchmarkEngine(Optimized|Reference)' -benchmem
func benchWorkload(b *testing.B) ([]int, []int, Config, SellingPolicy) {
	b.Helper()
	it := pricing.InstanceType{
		Name:           "bench.card",
		OnDemandHourly: 0.69,
		Upfront:        1000,
		ReservedHourly: 0.097,
		PeriodHours:    pricing.HoursPerYear,
	}
	demand := make([]int, pricing.HoursPerYear)
	newRes := make([]int, pricing.HoursPerYear)
	for i := range demand {
		demand[i] = 5 + i%7
	}
	newRes[0] = 11 // cover peak demand for the whole term
	cfg := Config{Instance: it, SellingDiscount: 0.8}
	// Fixed checkpoint at 3T/4 with a mid-range threshold: some
	// instances sell, some are kept, as in the paper's runs.
	policy := diffFixed{age: 3 * it.PeriodHours / 4, threshold: it.PeriodHours / 2}
	return demand, newRes, cfg, policy
}

// BenchmarkEngineOptimized measures the shipping engine on the 1-year
// workload.
func BenchmarkEngineOptimized(b *testing.B) {
	demand, newRes, cfg, policy := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(demand, newRes, cfg, policy); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineReference measures the pre-optimization engine
// (per-hour stable sort + full active scan) on the same workload; the
// optimized/reference ratio is the PR's headline speedup.
func BenchmarkEngineReference(b *testing.B) {
	demand, newRes, cfg, policy := benchWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := runReference(demand, newRes, cfg, policy); err != nil {
			b.Fatal(err)
		}
	}
}
