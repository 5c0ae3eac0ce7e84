package simulate

import (
	"testing"
)

// Edge-case coverage for the optimized engine's structural invariants:
// empty input, single-hour periods, sales interacting with service in
// the same hour, checkpoints at the last possible age, and market-fee
// proceeds arithmetic.

func TestRunZeroLengthSeries(t *testing.T) {
	res, err := Run(nil, nil, testConfig(), sellAlways{age: 10})
	if err != nil {
		t.Fatal(err)
	}
	if rows := hourRows(t, nil, nil, testConfig(), res); len(rows) != 0 || len(res.Instances) != 0 {
		t.Errorf("rows/Instances = %d/%d, want 0/0", len(rows), len(res.Instances))
	}
	if res.Cost != (CostBreakdown{}) {
		t.Errorf("Cost = %+v, want zero", res.Cost)
	}
}

func TestRunSingleHourPeriod(t *testing.T) {
	// Period 1: no age in (0, 1) exists, so nothing is ever offered for
	// sale, and each instance serves only its start hour.
	cfg := testConfig()
	cfg.Instance.PeriodHours = 1
	demand := []int{1, 1, 1}
	newRes := []int{1, 0, 1}
	res, err := Run(demand, newRes, cfg, sellAlways{age: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 0 {
		t.Errorf("SoldCount = %d, want 0 (no valid checkpoint age)", res.SoldCount())
	}
	wantActive := []int{1, 0, 1}
	wantOnDemand := []int{0, 1, 0}
	for h, rec := range hourRows(t, demand, newRes, cfg, res) {
		if rec.ActiveRes != wantActive[h] || rec.OnDemand != wantOnDemand[h] {
			t.Errorf("hour %d = %+v, want active %d, on-demand %d",
				h, rec, wantActive[h], wantOnDemand[h])
		}
	}
	if res.Instances[0].Worked != 1 || res.Instances[1].Worked != 1 {
		t.Errorf("instances = %+v, want one worked hour each", res.Instances)
	}
}

func TestRunSellAndServeSameHour(t *testing.T) {
	// Two instances in one batch; at the shared checkpoint hour one
	// policy consultation sells the first-consulted instance (index 2,
	// the higher index is consulted first) and keeps the other. The
	// sale takes effect before service: with demand 2 that hour, the
	// kept instance serves and one unit overflows to on-demand.
	n := 20
	demand := constSeries(0, n)
	demand[10] = 2
	newRes := constSeries(0, n)
	newRes[0] = 2
	var calls int
	policy := sellFunc{age: 10, fn: func(Checkpoint) bool {
		calls++
		return calls == 1 // only the first consultation sells
	}}
	res, err := Run(demand, newRes, testConfig(), policy)
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 1 {
		t.Fatalf("SoldCount = %d, want 1", res.SoldCount())
	}
	// Working sequence consults the higher batch index first.
	if res.Instances[1].SoldAt != 10 {
		t.Errorf("index-2 SoldAt = %d, want 10", res.Instances[1].SoldAt)
	}
	if res.Instances[0].SoldAt != -1 {
		t.Errorf("index-1 SoldAt = %d, want kept", res.Instances[0].SoldAt)
	}
	h := hourRows(t, demand, newRes, testConfig(), res)[10]
	if h.Sold != 1 || h.ActiveRes != 1 || h.OnDemand != 1 || h.Demand != 2 {
		t.Errorf("hour 10 = %+v, want 1 sold, 1 active, 1 on-demand", h)
	}
	// The sold instance must not serve at or after the sale hour.
	if res.Instances[1].Worked != 0 {
		t.Errorf("sold instance Worked = %d, want 0", res.Instances[1].Worked)
	}
	if res.Instances[0].Worked != 1 {
		t.Errorf("kept instance Worked = %d, want 1", res.Instances[0].Worked)
	}
}

// sellFunc adapts a closure into a fixed-checkpoint policy.
type sellFunc struct {
	age int
	fn  func(Checkpoint) bool
}

func (s sellFunc) CheckpointAge(int) int         { return s.age }
func (s sellFunc) ShouldSell(ck Checkpoint) bool { return s.fn(ck) }

func TestRunCheckpointAtPeriodMinusOne(t *testing.T) {
	// The last permissible decision age is period-1: Remaining is 1 and
	// the proceeds are a * R * 1/T.
	it := testInstance() // period 40
	n := it.PeriodHours
	newRes := constSeries(0, n)
	newRes[0] = 1
	demand := constSeries(0, n)
	res, err := Run(demand, newRes, testConfig(), sellAlways{age: it.PeriodHours - 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 1 || res.Instances[0].SoldAt != it.PeriodHours-1 {
		t.Fatalf("instances = %+v, want sold at %d", res.Instances, it.PeriodHours-1)
	}
	want := 0.8 * (1 / float64(it.PeriodHours)) * it.Upfront * 1
	if res.Cost.SaleIncome != want {
		t.Errorf("SaleIncome = %v, want %v", res.Cost.SaleIncome, want)
	}
	if last := hourRows(t, demand, newRes, testConfig(), res)[it.PeriodHours-1]; last.Sold != 1 {
		t.Errorf("last-hour record = %+v, want the sale", last)
	}
}

func TestRunOverflowWhileSelling(t *testing.T) {
	// Five instances, all sold at age 10 while demand stays at 5: from
	// the sale hour on the whole demand overflows onto on-demand.
	n := 20
	newRes := constSeries(0, n)
	newRes[0] = 5
	demand := constSeries(5, n)
	res, err := Run(demand, newRes, testConfig(), sellAlways{age: 10})
	if err != nil {
		t.Fatal(err)
	}
	rows := hourRows(t, demand, newRes, testConfig(), res)
	if res.SoldCount() != 5 {
		t.Fatalf("SoldCount = %d, want 5", res.SoldCount())
	}
	for h := 0; h < 10; h++ {
		if rows[h].OnDemand != 0 || rows[h].ActiveRes != 5 {
			t.Fatalf("hour %d = %+v, want fully reserved", h, rows[h])
		}
	}
	for h := 10; h < n; h++ {
		if rows[h].OnDemand != 5 || rows[h].ActiveRes != 0 {
			t.Fatalf("hour %d = %+v, want fully on-demand after the sell-off", h, rows[h])
		}
	}
	if rows[10].Sold != 5 {
		t.Errorf("hour 10 Sold = %d, want 5", rows[10].Sold)
	}
}

// boundaryAges reports ages at the boundaries of the valid range plus
// duplicates; only age 7 survives the engine's cleaning.
type boundaryAges struct{ period int }

func (p boundaryAges) CheckpointAge(int) int { return 7 }
func (p boundaryAges) CheckpointAges(period int) []int {
	return []int{0, period, period + 5, -1, 7, 7}
}
func (p boundaryAges) ShouldSell(Checkpoint) bool { return true }

func TestRunMultiCheckpointBoundaryAges(t *testing.T) {
	// 0 and period are both outside (0, period); with the duplicates
	// removed exactly one consultation happens, at age 7.
	n := 45
	newRes := constSeries(0, n)
	newRes[0] = 1
	demand := constSeries(0, n)
	res, err := Run(demand, newRes, testConfig(), boundaryAges{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 1 || res.Instances[0].SoldAt != 7 {
		t.Errorf("instances = %+v, want single sale at age 7", res.Instances)
	}
	total := 0
	for _, h := range hourRows(t, demand, newRes, testConfig(), res) {
		total += h.Sold
	}
	if total != 1 {
		t.Errorf("total sold across hours = %d, want 1", total)
	}
}

func TestRunMarketFeeProceedsExact(t *testing.T) {
	// The seller's proceeds must be exactly a * (rem/T) * R * (1-fee),
	// evaluated in that association order — pinned bit-for-bit so the
	// optimized engine cannot quietly reassociate the product.
	it := testInstance()
	n := it.PeriodHours
	newRes := constSeries(0, n)
	newRes[0] = 1
	cfg := testConfig()
	cfg.MarketFee = 0.12
	age := 13 // odd remaining fraction 27/40
	res, err := Run(constSeries(0, n), newRes, cfg, sellAlways{age: age})
	if err != nil {
		t.Fatal(err)
	}
	rem := float64(it.PeriodHours - age)
	want := cfg.SellingDiscount * (rem / float64(it.PeriodHours)) * it.Upfront * (1 - cfg.MarketFee)
	if res.Cost.SaleIncome != want {
		t.Errorf("SaleIncome = %.17g, want %.17g (bit-exact)", res.Cost.SaleIncome, want)
	}
}

func TestRunActivationAtLastHour(t *testing.T) {
	// A reservation in the final hour is still charged its upfront and
	// one reserved hour, and can serve that hour's demand.
	demand := []int{0, 0, 1}
	newRes := []int{0, 0, 1}
	res, err := Run(demand, newRes, testConfig(), sellAlways{age: 5})
	if err != nil {
		t.Fatal(err)
	}
	h := hourRows(t, demand, newRes, testConfig(), res)[2]
	if h.ActiveRes != 1 || h.OnDemand != 0 || h.NewlyRes != 1 {
		t.Errorf("hour 2 = %+v", h)
	}
	want := testInstance().Upfront + testInstance().ReservedHourly
	if !almostEqual(res.Cost.Total(), want, 1e-12) {
		t.Errorf("Total = %v, want %v", res.Cost.Total(), want)
	}
	if res.Instances[0].Worked != 1 {
		t.Errorf("Worked = %d, want 1", res.Instances[0].Worked)
	}
}
