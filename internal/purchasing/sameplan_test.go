package purchasing

import (
	"math/rand"
	"slices"
	"testing"

	"rimarket/internal/pricing"
)

// samePlanCards returns the built-in catalog's one-year cards followed
// by their three-year terms, in name order.
func samePlanCards(t *testing.T) []pricing.InstanceType {
	t.Helper()
	cards := pricing.StandardLinuxUSEast().All()
	three, err := pricing.ThreeYearStandardLinuxUSEast()
	if err != nil {
		t.Fatal(err)
	}
	return append(cards, three.All()...)
}

// samePlanDemand draws a two-year demand series from seed: a base load
// with bursts and idle stretches, so every behavior reserves, lets
// reservations lapse and reserves again.
func samePlanDemand(seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	demand := make([]int, 2*pricing.HoursPerYear)
	base := 1 + r.Intn(3)
	for t := range demand {
		switch {
		case t%2000 < 300:
			demand[t] = 0
		case r.Intn(10) == 0:
			demand[t] = base + r.Intn(6)
		default:
			demand[t] = base
		}
	}
	return demand
}

// TestSamePlanMatchesPlans is SamePlan's property: wherever it says a
// behavior plans card a and card b alike, PlanReservations gives equal
// series on both for every seeded trace. Plans are compared over every
// ordered pair of catalog cards, one-year and three-year.
func TestSamePlanMatchesPlans(t *testing.T) {
	cards := samePlanCards(t)
	seeds := []int64{1, 7, 2018}
	demands := make([][]int, len(seeds))
	for k, seed := range seeds {
		demands[k] = samePlanDemand(seed)
	}
	for _, behavior := range Behaviors {
		// plans[ci][k] is the behavior's plan of trace k on card ci.
		plans := make([][][]int, len(cards))
		for ci, card := range cards {
			for k, demand := range demands {
				p, err := ForBehavior(behavior, card, seeds[k])
				if err != nil {
					t.Fatal(err)
				}
				newRes, err := PlanReservations(demand, card.PeriodHours, p)
				if err != nil {
					t.Fatal(err)
				}
				plans[ci] = append(plans[ci], newRes)
			}
		}
		shared := 0
		for ai, a := range cards {
			for bi, b := range cards {
				if ai == bi || !SamePlan(behavior, a, b) {
					continue
				}
				shared++
				for k := range demands {
					if !slices.Equal(plans[ai][k], plans[bi][k]) {
						t.Fatalf("%s: SamePlan(%s %dh, %s %dh) but seed %d plans differ",
							behavior, a.Name, a.PeriodHours, b.Name, b.PeriodHours, seeds[k])
					}
				}
			}
		}
		if shared == 0 && (behavior == "all-reserved" || behavior == "random") {
			t.Errorf("%s: no two catalog cards plan alike; the property is vacuous", behavior)
		}
	}
}

// TestSamePlanCases pins the rule on named cards: all-reserved and
// random share a plan between cards of one period, m4.large and
// c4.large or m4.large and d2.xlarge, the Wang behaviors share none,
// and a one-year card never shares a plan with a three-year card.
func TestSamePlanCases(t *testing.T) {
	cat := pricing.StandardLinuxUSEast()
	card := func(name string) pricing.InstanceType {
		it, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}
	d2x, m4, c4 := card("d2.xlarge"), card("m4.large"), card("c4.large")
	d2x3, err := pricing.ThreeYearTerm(d2x)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		behavior string
		a, b     pricing.InstanceType
		want     bool
	}{
		{"all-reserved", m4, c4, true},
		{"random", m4, d2x, true},
		{"wang-online", m4, c4, false},
		{"wang-variant", m4, c4, false},
		{"all-reserved", d2x, d2x3, false},
		{"random", d2x, d2x3, false},
		{"no-such-behavior", d2x, d2x, false},
	}
	for _, c := range cases {
		if got := SamePlan(c.behavior, c.a, c.b); got != c.want {
			t.Errorf("SamePlan(%s, %s %dh, %s %dh) = %v, want %v",
				c.behavior, c.a.Name, c.a.PeriodHours, c.b.Name, c.b.PeriodHours, got, c.want)
		}
		if got := SamePlan(c.behavior, c.b, c.a); got != c.want {
			t.Errorf("SamePlan is not symmetric for %s on %s and %s", c.behavior, c.a.Name, c.b.Name)
		}
	}
}
