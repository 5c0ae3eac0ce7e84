package analysis

import (
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// cohortSchedule returns a year-long busy schedule the way the ratio
// audit finds them: the first cohort user's two-year trace, reserved
// under the all-reserved behavior and replayed with schedules on, gives
// its first full-period instance that is neither idle nor always busy.
// It also returns A_{3T/4} on the d2.xlarge card at a = 0.8.
func cohortSchedule(tb testing.TB) ([]bool, core.Threshold) {
	tb.Helper()
	it := pricing.D2XLarge()
	policy, err := core.NewThreshold(it, 0.8, core.Fraction3T4)
	if err != nil {
		tb.Fatal(err)
	}
	T := it.PeriodHours
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 1, Hours: 2 * T, Seed: 2018})
	if err != nil {
		tb.Fatal(err)
	}
	demand := traces[0].Demand
	newRes, err := purchasing.PlanReservations(demand, T, purchasing.AllReserved{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := simulate.Config{Instance: it, SellingDiscount: 0.8, RecordSchedules: true}
	run, err := simulate.Run(demand, newRes, cfg, core.KeepReserved{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, inst := range run.Instances {
		if inst.Start+T <= len(demand) && inst.Worked > 0 && inst.Worked < T {
			return inst.Schedule, policy
		}
	}
	tb.Fatal("cohort user has no partly busy full-period instance")
	return nil, core.Threshold{}
}

// TestMeasuredRatioAllocs pins the audit's per-instance step at zero
// allocations: the offline OPT scan and the online cost of A_{3T/4} on
// a year-long schedule allocate nothing.
func TestMeasuredRatioAllocs(t *testing.T) {
	sched, policy := cohortSchedule(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := MeasuredRatio(sched, policy, 0.8); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MeasuredRatio made %v allocations per run, want 0", allocs)
	}
}

// BenchmarkMeasuredRatio times the ratio audit's per-instance step,
// online A_{3T/4} cost over the restricted offline OPT, on one
// year-long cohort schedule. scripts/bench.sh gates its 0 allocs/op
// exactly.
func BenchmarkMeasuredRatio(b *testing.B) {
	sched, policy := cohortSchedule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := MeasuredRatio(sched, policy, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		ratioSink = r
	}
}

// ratioSink keeps BenchmarkMeasuredRatio's call from being optimized
// away.
var ratioSink float64
