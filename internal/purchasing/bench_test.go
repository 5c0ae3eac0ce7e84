package purchasing

import (
	"testing"

	"rimarket/internal/pricing"
	"rimarket/internal/workload"
)

// cohortDemand returns the year-long demand of one stable, one
// moderate and one volatile cohort user: the input of the Wang
// benchmark and allocation pin.
func cohortDemand(tb testing.TB) [][]int {
	tb.Helper()
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 1, Hours: pricing.HoursPerYear, Seed: 2018})
	if err != nil {
		tb.Fatal(err)
	}
	out := make([][]int, len(traces))
	for i, tr := range traces {
		out[i] = tr.Demand
	}
	return out
}

// TestWangPlanAllocs pins a year-long Wang plan's allocations: the
// result slice, the planner, its one-period span window and the level
// slice's growth to the user's peak demand. None of them grows with
// the hours that pay on-demand, which the level-list reference's
// allocations do.
func TestWangPlanAllocs(t *testing.T) {
	it := pricing.D2XLarge()
	want := []float64{8, 10, 11} // stable, moderate, volatile
	for i, demand := range cohortDemand(t) {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := PlanReservations(demand, it.PeriodHours, NewWangOnline(it)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want[i] {
			t.Errorf("user %d: year-long Wang plan made %v allocations, want %v", i, allocs, want[i])
		}
	}
}

// BenchmarkPlanReservations times the cold plan's Wang step: one op
// plans the three year-long cohort users (stable, moderate, volatile)
// at d2.xlarge. scripts/bench.sh gates its allocs/op exactly.
func BenchmarkPlanReservations(b *testing.B) {
	it := pricing.D2XLarge()
	users := cohortDemand(b)
	for _, bc := range []struct {
		name string
		new  func(pricing.InstanceType) *WangOnline
	}{
		{"wang-online", NewWangOnline},
		{"wang-variant", NewWangVariant},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, demand := range users {
					plan, err := PlanReservations(demand, it.PeriodHours, bc.new(it))
					if err != nil {
						b.Fatal(err)
					}
					planSink = plan
				}
			}
		})
	}
}

// planSink keeps BenchmarkPlanReservations' calls from being optimized
// away.
var planSink []int
