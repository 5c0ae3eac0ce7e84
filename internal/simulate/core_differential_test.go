package simulate_test

// Differential coverage with the real production policies: the local
// shapes in differential_test.go pin the engine's interface handling;
// this file pins it against the policies every experiment actually
// runs — the paper's threshold algorithms, All-Selling, the
// multi-checkpoint portfolio, and the randomized per-instance policy —
// on cohort-shaped synthetic demand.

import (
	"math/rand"
	"reflect"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

func corePolicies(t *testing.T, it pricing.InstanceType, discount float64) map[string]simulate.SellingPolicy {
	t.Helper()
	a3t4, err := core.NewA3T4(it, discount)
	if err != nil {
		t.Fatal(err)
	}
	at2, err := core.NewAT2(it, discount)
	if err != nil {
		t.Fatal(err)
	}
	at4, err := core.NewAT4(it, discount)
	if err != nil {
		t.Fatal(err)
	}
	all, err := core.NewAllSelling(core.Fraction3T4)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := core.NewPaperMultiThreshold(it, discount)
	if err != nil {
		t.Fatal(err)
	}
	randomized, err := core.NewRandomized(it, discount, core.PaperFractions(), 2018)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]simulate.SellingPolicy{
		"keep-reserved":   core.KeepReserved{},
		"A_T4":            at4,
		"A_T2":            at2,
		"A_3T4":           a3t4,
		"all-selling":     all,
		"multi-threshold": multi,
		"randomized":      randomized,
	}
}

// TestDifferentialCorePolicies replays planned cohort users through
// both engines under every production policy and demands identical
// Results.
func TestDifferentialCorePolicies(t *testing.T) {
	it := pricing.InstanceType{
		Name:           "diff.core",
		OnDemandHourly: 0.69,
		Upfront:        1000,
		ReservedHourly: 0.097,
		PeriodHours:    120,
	}
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 2, Hours: 360, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for name, policy := range corePolicies(t, it, 0.8) {
		t.Run(name, func(t *testing.T) {
			for _, tr := range traces {
				newRes, err := purchasing.PlanReservations(tr.Demand, it.PeriodHours, purchasing.AllReserved{})
				if err != nil {
					t.Fatal(err)
				}
				cfg := simulate.Config{
					Instance:        it,
					SellingDiscount: 0.8,
					MarketFee:       []float64{0, 0.12}[rng.Intn(2)],
					RecordSchedules: rng.Intn(2) == 0,
				}
				want, wantRows, err := simulate.RunReference(tr.Demand, newRes, cfg, policy)
				if err != nil {
					t.Fatal(err)
				}
				got, err := simulate.Run(tr.Demand, newRes, cfg, policy)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("user %s: optimized result diverges from reference\n got %+v\nwant %+v",
						tr.User, got.Cost, want.Cost)
				}
				rows, err := simulate.HourRows(tr.Demand, newRes, it.PeriodHours, got.Instances)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(rows, wantRows) {
					t.Fatalf("user %s: HourRows diverges from the reference's rows", tr.User)
				}
			}
		})
	}
}
