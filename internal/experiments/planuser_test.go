package experiments

import (
	"math/rand"
	"reflect"
	"testing"

	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/workload"
)

// TestStalePlanScratch: one worker plans a two-period cohort in a
// shuffled order, tallest user first, on one reused Planners and one
// reused reservation buffer, first against a card whose period
// outlasts the horizon and then against the test card, so every
// planner starts on a span ring, levels and buffer the previous user
// left dirty. Every plan must equal a fresh ForBehavior plan of the
// same user.
func TestStalePlanScratch(t *testing.T) {
	base := TestScaleConfig()
	hours := 2 * base.Instance.PeriodHours
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 8, Hours: hours, Seed: base.Seed})
	if err != nil {
		t.Fatal(err)
	}
	order := rand.New(rand.NewSource(5)).Perm(len(traces))
	tallest := 0
	for k, i := range order {
		if traces[i].MaxDemand() > traces[order[tallest]].MaxDemand() {
			tallest = k
		}
	}
	order[0], order[tallest] = order[tallest], order[0]

	long := base.Instance // the card riexp -term 3 builds, at test scale
	long.PeriodHours *= 3
	long.Upfront *= 3
	var planners purchasing.Planners
	buf := make([]int, hours)
	for _, card := range []pricing.InstanceType{long, base.Instance} {
		cfg := base
		cfg.Instance = card
		for _, i := range order {
			got, err := planUser(cfg, i, traces[i], &planners, buf)
			if err != nil {
				t.Fatal(err)
			}
			planner, err := purchasing.ForBehavior(got.Behavior, card, cfg.Seed^int64(i))
			if err != nil {
				t.Fatal(err)
			}
			want, err := purchasing.PlanReservations(traces[i].Demand, card.PeriodHours, planner)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.NewRes, want) {
				t.Fatalf("period %d, user %d (%s, %s): reused planners' plan differs from a fresh one",
					card.PeriodHours, i, traces[i].User, got.Behavior)
			}
			reserved, firstRes := 0, -1
			for h, n := range want {
				if n > 0 && firstRes < 0 {
					firstRes = h
				}
				reserved += n
			}
			if got.Reserved != reserved || got.firstRes != firstRes {
				t.Fatalf("period %d, user %d: Reserved %d first %d, want %d and %d",
					card.PeriodHours, i, got.Reserved, got.firstRes, reserved, firstRes)
			}
		}
	}
}
