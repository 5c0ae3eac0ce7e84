package analysis

import (
	"math"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// cohortInstance is a year-long instance the way the ratio audit finds
// them: its busy schedule, the demand over its life, its window
// position steps and its busy hours, with A_{3T/4} on the d2.xlarge
// card at a = 0.8 and that policy's proven bound.
type cohortInstance struct {
	schedule []bool
	demand   []int
	steps    []simulate.PositionStep
	worked   int
	policy   core.Threshold
	bound    Bound
}

// newCohortInstance returns the first cohort user's first full-period
// instance that is neither idle nor always busy: the user's two-year
// trace, reserved under the all-reserved behavior and replayed under
// Keep-Reserved with schedules on.
func newCohortInstance(tb testing.TB) cohortInstance {
	tb.Helper()
	it := pricing.D2XLarge()
	policy, err := core.NewThreshold(it, 0.8, core.Fraction3T4)
	if err != nil {
		tb.Fatal(err)
	}
	bound, err := BoundForInstance(it, core.Fraction3T4, 0.8)
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
	var s simulate.Scratch
	cfg := simulate.Config{Instance: it, SellingDiscount: 0.8, RecordSchedules: true}
	if _, err := s.Totals(demand, newRes, cfg, core.KeepReserved{}); err != nil {
		tb.Fatal(err)
	}
	for j, inst := range s.Records() {
		if inst.Start+T <= len(demand) && inst.Worked > 0 && inst.Worked < T {
			steps, err := s.Positions(nil, j)
			if err != nil {
				tb.Fatal(err)
			}
			return cohortInstance{
				schedule: inst.Schedule,
				demand:   demand[inst.Start : inst.Start+T],
				steps:    steps,
				worked:   inst.Worked,
				policy:   policy,
				bound:    bound,
			}
		}
	}
	tb.Fatal("cohort user has no partly busy full-period instance")
	return cohortInstance{}
}

// TestMeasuredRatioAllocs pins MeasuredRatio on a materialized schedule
// at zero allocations: the offline OPT scan and the online cost of
// A_{3T/4} on a year-long schedule allocate nothing.
func TestMeasuredRatioAllocs(t *testing.T) {
	in := newCohortInstance(t)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := MeasuredRatio(in.schedule, in.policy, 0.8); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("MeasuredRatio made %v allocations per run, want 0", allocs)
	}
}

// TestAuditInstanceAllocs pins the ratio audit's per-instance step at
// zero allocations: A_{3T/4} and the restricted OPT priced from the
// closed form of a year-long schedule (core.WindowCosts) and checked
// against the bound (VerifyCosts), with the measured ratio the one
// MeasuredRatio reads on the schedule itself.
func TestAuditInstanceAllocs(t *testing.T) {
	in := newCohortInstance(t)
	want, err := MeasuredRatio(in.schedule, in.policy, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if got := auditInstance(t, in); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("audit step measured %v, MeasuredRatio %v", got, want)
	}
	if allocs := testing.AllocsPerRun(20, func() { auditInstance(t, in) }); allocs != 0 {
		t.Errorf("the audit step made %v allocations per run, want 0", allocs)
	}
}

// auditInstance is the ratio audit's per-instance step on in.
func auditInstance(tb testing.TB, in cohortInstance) float64 {
	online, opt, err := core.WindowCosts(in.demand, in.steps, in.worked, in.policy, core.BillWhenUsed)
	if err != nil {
		tb.Fatal(err)
	}
	measured, err := VerifyCosts(online, opt, in.bound)
	if err != nil {
		tb.Fatal(err)
	}
	return measured
}

// BenchmarkMeasuredRatio times MeasuredRatio, online A_{3T/4} cost over
// the restricted offline OPT, on one year-long cohort schedule held as
// one bool per hour. scripts/bench.sh gates its 0 allocs/op exactly.
func BenchmarkMeasuredRatio(b *testing.B) {
	in := newCohortInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := MeasuredRatio(in.schedule, in.policy, 0.8)
		if err != nil {
			b.Fatal(err)
		}
		ratioSink = r
	}
}

// BenchmarkAuditInstance times the ratio audit's per-instance step on
// the same instance as BenchmarkMeasuredRatio, from its demand window
// and position steps instead of its schedule. scripts/bench.sh gates
// its 0 allocs/op exactly.
func BenchmarkAuditInstance(b *testing.B) {
	in := newCohortInstance(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratioSink = auditInstance(b, in)
	}
}

// ratioSink keeps the benchmarks' calls from being optimized away.
var ratioSink float64
