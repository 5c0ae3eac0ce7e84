package simulate

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"rimarket/internal/pricing"
)

// This file pins Scratch.Totals to Run. Both are the same replay kernel
// with different outputs, so over the seeded differential corpus the
// totals output must carry Run's exact cost bits, sale count and idle
// hours, even when one Scratch is reused across cases of every size
// and policy shape. CI runs it under -race.

// totalsFromRun derives the Totals a full Result implies.
func totalsFromRun(res Result) Totals {
	tot := Totals{Cost: res.Cost, Sold: res.SoldCount()}
	for _, h := range res.Hours {
		served := h.Demand - h.OnDemand
		tot.IdleHours += h.ActiveRes - served
	}
	return tot
}

// assertTotalsIdentical compares totals bit for bit, so a change in
// float accumulation order fails even where == would round alike.
func assertTotalsIdentical(t *testing.T, got, want Totals) {
	t.Helper()
	bits := func(c CostBreakdown) [4]uint64 {
		return [4]uint64{
			math.Float64bits(c.OnDemand), math.Float64bits(c.Upfront),
			math.Float64bits(c.ReservedHourly), math.Float64bits(c.SaleIncome),
		}
	}
	if bits(got.Cost) != bits(want.Cost) {
		t.Fatalf("Cost differs:\n got %+v\nwant %+v", got.Cost, want.Cost)
	}
	if got.Sold != want.Sold || got.IdleHours != want.IdleHours {
		t.Fatalf("totals differ: got sold=%d idle=%d, want sold=%d idle=%d",
			got.Sold, got.IdleHours, want.Sold, want.IdleHours)
	}
}

// instancesOf is a case's reservation count, its scratch footprint.
func instancesOf(c diffCase) int {
	n := 0
	for _, r := range c.newRes {
		n += r
	}
	return n
}

// TestScratchTotalsMatchRun runs the 250-case differential corpus
// through one reused Scratch. The scratch is dirtied first by a large
// multi-checkpoint replay that sells everything, then the cases run
// large → small → large (descending over half the corpus, ascending
// over the other half), so every buffer is both outgrown and reused
// with stale contents beyond the live prefix, across per-instance,
// multi-checkpoint and shared-age policies.
func TestScratchTotalsMatchRun(t *testing.T) {
	const cases = 250
	rng := rand.New(rand.NewSource(20180702)) // the differential corpus
	corpus := make([]diffCase, cases)
	for i := range corpus {
		corpus[i] = sampleDiffCase(rng, i)
	}
	sort.SliceStable(corpus, func(i, j int) bool {
		return instancesOf(corpus[i])*len(corpus[i].demand) > instancesOf(corpus[j])*len(corpus[j].demand)
	})
	order := make([]diffCase, 0, cases)
	for i := 0; i < cases; i += 2 {
		order = append(order, corpus[i]) // large → small
	}
	for i := cases - 1 - cases%2; i > 0; i -= 2 {
		order = append(order, corpus[i]) // small → large
	}
	if len(order) != cases {
		t.Fatalf("ordering lost cases: %d of %d", len(order), cases)
	}

	var s Scratch
	dirty := diffCase{demand: make([]int, 400), newRes: make([]int, 400), cfg: testConfig(),
		policy: diffMulti{ages: []int{3, 9, 17, 25}, threshold: 1 << 20}}
	for h := range dirty.demand {
		dirty.demand[h] = h % 11
		dirty.newRes[h] = h % 4
	}
	if _, err := s.Totals(dirty.demand, dirty.newRes, dirty.cfg, dirty.policy); err != nil {
		t.Fatal(err)
	}

	for _, c := range order {
		want, wantErr := Run(c.demand, c.newRes, c.cfg, c.policy)
		got, gotErr := s.Totals(c.demand, c.newRes, c.cfg, c.policy)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: error mismatch: totals %v, Run %v", c.name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		t.Run(c.name, func(t *testing.T) { assertTotalsIdentical(t, got, totalsFromRun(want)) })
	}
}

// TestScratchTotalsErrors pins Totals to reject invalid input with
// Run's exact error text.
func TestScratchTotalsErrors(t *testing.T) {
	cfg := testConfig()
	var s Scratch
	for _, c := range []struct {
		name           string
		demand, newRes []int
		cfg            Config
		policy         SellingPolicy
	}{
		{"length", []int{1}, []int{0, 0}, cfg, KeepReserved{}},
		{"negative demand", []int{-4}, []int{0}, cfg, KeepReserved{}},
		{"negative res", []int{4}, []int{-1}, cfg, KeepReserved{}},
		{"nil policy", []int{1}, []int{0}, cfg, nil},
		{"bad cfg", []int{1}, []int{0}, Config{Instance: testInstance(), SellingDiscount: 2}, KeepReserved{}},
	} {
		_, wantErr := Run(c.demand, c.newRes, c.cfg, c.policy)
		_, gotErr := s.Totals(c.demand, c.newRes, c.cfg, c.policy)
		if wantErr == nil || gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: totals error %v, Run error %v", c.name, gotErr, wantErr)
		}
	}
}

// TestScratchTotalsZeroAllocs pins the point of the scratch: once warm,
// a one-year totals replay allocates nothing, for a shared-age policy
// that sells, a per-instance policy and the never-selling baseline.
func TestScratchTotalsZeroAllocs(t *testing.T) {
	it := pricing.InstanceType{
		Name:           "alloc.card",
		OnDemandHourly: 0.69,
		Upfront:        1000,
		ReservedHourly: 0.097,
		PeriodHours:    pricing.HoursPerYear,
	}
	demand := make([]int, pricing.HoursPerYear)
	newRes := make([]int, pricing.HoursPerYear)
	for h := range demand {
		demand[h] = 5 + h%7
		if h%500 == 0 {
			newRes[h] = 3
		}
	}
	cfg := Config{Instance: it, SellingDiscount: 0.8}
	for _, p := range []struct {
		name   string
		policy SellingPolicy
	}{
		{"shared-age", diffFixed{age: 3 * it.PeriodHours / 4, threshold: it.PeriodHours / 2}},
		{"per-instance", diffPerInstance{seed: 7, threshold: it.PeriodHours / 2}},
		{"keep-reserved", KeepReserved{}},
	} {
		var s Scratch
		if _, err := s.Totals(demand, newRes, cfg, p.policy); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := s.Totals(demand, newRes, cfg, p.policy); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm totals replay made %v allocs, want 0", p.name, allocs)
		}
	}
}
