package simulate

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rimarket/internal/pricing"
)

// testInstance is a small, easily hand-computable price card:
// p = 1.0, R = 100, alpha = 0.25, T = 40 hours.
func testInstance() pricing.InstanceType {
	return pricing.InstanceType{
		Name:           "test.small",
		OnDemandHourly: 1.0,
		Upfront:        100,
		ReservedHourly: 0.25,
		PeriodHours:    40,
	}
}

func testConfig() Config {
	return Config{Instance: testInstance(), SellingDiscount: 0.8}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// sellAlways sells every instance at a fixed checkpoint.
type sellAlways struct{ age int }

func (s sellAlways) CheckpointAge(int) int      { return s.age }
func (s sellAlways) ShouldSell(Checkpoint) bool { return true }

// sellNever has a checkpoint but never sells; distinguishes checkpoint
// bookkeeping from sale bookkeeping.
type sellNever struct{ age int }

func (s sellNever) CheckpointAge(int) int      { return s.age }
func (s sellNever) ShouldSell(Checkpoint) bool { return false }

// captureCheckpoints records every checkpoint it is offered.
type captureCheckpoints struct {
	age  int
	seen *[]Checkpoint
}

func (c captureCheckpoints) CheckpointAge(int) int { return c.age }
func (c captureCheckpoints) ShouldSell(ck Checkpoint) bool {
	*c.seen = append(*c.seen, ck)
	return false
}

func constSeries(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestRunValidation(t *testing.T) {
	cfg := testConfig()
	tests := []struct {
		name    string
		demand  []int
		newRes  []int
		cfg     Config
		policy  SellingPolicy
		wantErr string
	}{
		{
			name: "length mismatch", demand: []int{1, 2}, newRes: []int{0},
			cfg: cfg, policy: KeepReserved{}, wantErr: "equal length",
		},
		{
			name: "negative demand", demand: []int{-1}, newRes: []int{0},
			cfg: cfg, policy: KeepReserved{}, wantErr: "negative demand",
		},
		{
			name: "negative reservations", demand: []int{1}, newRes: []int{-2},
			cfg: cfg, policy: KeepReserved{}, wantErr: "negative reservation",
		},
		{
			name: "nil policy", demand: []int{1}, newRes: []int{0},
			cfg: cfg, policy: nil, wantErr: "nil selling policy",
		},
		{
			name: "bad discount", demand: []int{1}, newRes: []int{0},
			cfg:    Config{Instance: testInstance(), SellingDiscount: 1.5},
			policy: KeepReserved{}, wantErr: "selling discount",
		},
		{
			name: "bad fee", demand: []int{1}, newRes: []int{0},
			cfg:    Config{Instance: testInstance(), SellingDiscount: 0.5, MarketFee: 1},
			policy: KeepReserved{}, wantErr: "market fee",
		},
		{
			name: "bad instance", demand: []int{1}, newRes: []int{0},
			cfg:    Config{Instance: pricing.InstanceType{}, SellingDiscount: 0.5},
			policy: KeepReserved{}, wantErr: "no name",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Run(tt.demand, tt.newRes, tt.cfg, tt.policy)
			if err == nil {
				t.Fatal("Run succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.wantErr) {
				t.Errorf("error %q does not contain %q", err, tt.wantErr)
			}
		})
	}
}

func TestRunPureOnDemand(t *testing.T) {
	// No reservations: every demand hour is an on-demand purchase.
	demand := []int{2, 0, 3, 1}
	newRes := constSeries(0, 4)
	res, err := Run(demand, newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Cost.Total(), 6.0, 1e-12) {
		t.Errorf("Total = %v, want 6.0", res.Cost.Total())
	}
	if res.Cost.Upfront != 0 || res.Cost.ReservedHourly != 0 || res.Cost.SaleIncome != 0 {
		t.Errorf("unexpected non-on-demand cost: %+v", res.Cost)
	}
	for tt, h := range hourRows(t, demand, newRes, testConfig(), res) {
		if h.OnDemand != demand[tt] {
			t.Errorf("hour %d: OnDemand = %d, want %d", tt, h.OnDemand, demand[tt])
		}
	}
}

func TestRunKeepReservedAccounting(t *testing.T) {
	// One instance reserved at hour 0, horizon = period = 40 h, demand 1
	// in every hour: cost = R + alpha*p*T = 100 + 0.25*40 = 110.
	n := 40
	newRes := constSeries(0, n)
	newRes[0] = 1
	res, err := Run(constSeries(1, n), newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(res.Cost.Total(), 110, 1e-9) {
		t.Errorf("Total = %v, want 110", res.Cost.Total())
	}
	if len(res.Instances) != 1 {
		t.Fatalf("instances = %d, want 1", len(res.Instances))
	}
	inst := res.Instances[0]
	if inst.Worked != 40 || inst.SoldAt != -1 {
		t.Errorf("instance = %+v, want Worked 40, never sold", inst)
	}
}

func TestRunReservedHourlyChargedWhenIdle(t *testing.T) {
	// Eq. (1) charges r_t * alpha * p even for idle reserved hours.
	n := 10
	newRes := constSeries(0, n)
	newRes[0] = 1
	res, err := Run(constSeries(0, n), newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + 0.25*10 // R + alpha*p * 10 idle hours
	if !almostEqual(res.Cost.Total(), want, 1e-9) {
		t.Errorf("Total = %v, want %v", res.Cost.Total(), want)
	}
	if res.Instances[0].Worked != 0 {
		t.Errorf("Worked = %d, want 0", res.Instances[0].Worked)
	}
}

func TestRunExpiryStopsCharges(t *testing.T) {
	// Period 40, horizon 50: after expiry the instance neither serves
	// nor incurs the hourly fee, so hours 40..49 go on-demand.
	n := 50
	newRes := constSeries(0, n)
	newRes[0] = 1
	demand := constSeries(1, n)
	res, err := Run(demand, newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	want := 100.0 + 0.25*40 + 1.0*10
	if !almostEqual(res.Cost.Total(), want, 1e-9) {
		t.Errorf("Total = %v, want %v", res.Cost.Total(), want)
	}
	if h := hourRows(t, demand, newRes, testConfig(), res)[40]; h.ActiveRes != 0 || h.OnDemand != 1 {
		t.Errorf("hour 40 = %+v, want expired reservation", h)
	}
}

func TestRunSellAtCheckpoint(t *testing.T) {
	// Sell at age 30 of a 40-hour period: income = a * R * 10/40 = 20.
	// After the sale the instance stops serving and demand goes on-demand.
	n := 40
	newRes := constSeries(0, n)
	newRes[0] = 1
	demand := constSeries(1, n)
	res, err := Run(demand, newRes, testConfig(), sellAlways{age: 30})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SoldCount(); got != 1 {
		t.Fatalf("SoldCount = %d, want 1", got)
	}
	inst := res.Instances[0]
	if inst.SoldAt != 30 {
		t.Errorf("SoldAt = %d, want 30", inst.SoldAt)
	}
	if inst.Worked != 30 {
		t.Errorf("Worked = %d, want 30 (no service after sale)", inst.Worked)
	}
	if inst.WorkedAtCheckpoint != 30 {
		t.Errorf("WorkedAtCheckpoint = %d, want 30", inst.WorkedAtCheckpoint)
	}
	// Cost: R + 30h reserved hourly + 10h on-demand - income.
	want := 100 + 0.25*30 + 1.0*10 - 0.8*100*0.25
	if !almostEqual(res.Cost.Total(), want, 1e-9) {
		t.Errorf("Total = %v, want %v", res.Cost.Total(), want)
	}
	if h := hourRows(t, demand, newRes, testConfig(), res)[30]; h.Sold != 1 || h.ActiveRes != 0 || h.OnDemand != 1 {
		t.Errorf("hour 30 = %+v", h)
	}
}

func TestRunMarketFeeReducesIncome(t *testing.T) {
	n := 40
	newRes := constSeries(0, n)
	newRes[0] = 1
	cfg := testConfig()
	cfg.MarketFee = 0.12
	res, err := Run(constSeries(0, n), newRes, cfg, sellAlways{age: 20})
	if err != nil {
		t.Fatal(err)
	}
	// income = a * R * (20/40) * (1 - 0.12) = 0.8*100*0.5*0.88 = 35.2
	if !almostEqual(res.Cost.SaleIncome, 35.2, 1e-9) {
		t.Errorf("SaleIncome = %v, want 35.2", res.Cost.SaleIncome)
	}
}

func TestRunCheckpointInfo(t *testing.T) {
	// Demand only in the first 5 hours; checkpoint at age 20 must see
	// Worked=5, Remaining=20.
	n := 30
	demand := constSeries(0, n)
	for i := 0; i < 5; i++ {
		demand[i] = 1
	}
	newRes := constSeries(0, n)
	newRes[0] = 1
	var seen []Checkpoint
	_, err := Run(demand, newRes, testConfig(), captureCheckpoints{age: 20, seen: &seen})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 1 {
		t.Fatalf("checkpoints = %d, want 1", len(seen))
	}
	ck := seen[0]
	if ck.Hour != 20 || ck.Start != 0 || ck.Age != 20 || ck.Worked != 5 || ck.Remaining != 20 {
		t.Errorf("checkpoint = %+v", ck)
	}
}

func TestRunNoCheckpointBeyondHorizon(t *testing.T) {
	// Instance reserved at hour 5 with checkpoint age 30 in a 20-hour
	// horizon: the checkpoint never arrives, nothing is sold.
	n := 20
	newRes := constSeries(0, n)
	newRes[5] = 1
	res, err := Run(constSeries(1, n), newRes, testConfig(), sellAlways{age: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 0 {
		t.Errorf("SoldCount = %d, want 0", res.SoldCount())
	}
	if res.Instances[0].WorkedAtCheckpoint != -1 {
		t.Errorf("WorkedAtCheckpoint = %d, want -1", res.Instances[0].WorkedAtCheckpoint)
	}
}

func TestRunWorkingSequenceLeastRemainingFirst(t *testing.T) {
	// Two instances: one reserved at hour 0, one at hour 2. With demand
	// 1, the older instance (less remaining period) must do all the work.
	n := 10
	demand := constSeries(1, n)
	newRes := constSeries(0, n)
	newRes[0] = 1
	newRes[2] = 1
	res, err := Run(demand, newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	old, young := res.Instances[0], res.Instances[1]
	if old.Start != 0 || young.Start != 2 {
		t.Fatalf("instance order = %d, %d", old.Start, young.Start)
	}
	if old.Worked != 10 {
		t.Errorf("older instance Worked = %d, want 10", old.Worked)
	}
	if young.Worked != 0 {
		t.Errorf("younger instance Worked = %d, want 0", young.Worked)
	}
}

func TestRunWithinBatchHigherIndexWorksFirst(t *testing.T) {
	// Algorithm 1's free-time formula implies that within a batch the
	// lower-index instance idles first, i.e. the higher index works first.
	n := 10
	demand := constSeries(1, n)
	newRes := constSeries(0, n)
	newRes[0] = 2
	res, err := Run(demand, newRes, testConfig(), KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	first, second := res.Instances[0], res.Instances[1]
	if first.BatchIndex != 1 || second.BatchIndex != 2 {
		t.Fatalf("batch indices = %d, %d", first.BatchIndex, second.BatchIndex)
	}
	if second.Worked != 10 {
		t.Errorf("index-2 Worked = %d, want 10", second.Worked)
	}
	if first.Worked != 0 {
		t.Errorf("index-1 Worked = %d, want 0", first.Worked)
	}
}

func TestRunRecordSchedules(t *testing.T) {
	n := 10
	demand := []int{1, 0, 1, 0, 1, 0, 0, 0, 0, 0}
	newRes := constSeries(0, n)
	newRes[0] = 1
	cfg := testConfig()
	cfg.RecordSchedules = true
	res, err := Run(demand, newRes, cfg, KeepReserved{})
	if err != nil {
		t.Fatal(err)
	}
	sched := res.Instances[0].Schedule
	if len(sched) != testInstance().PeriodHours {
		t.Fatalf("schedule length = %d, want %d", len(sched), testInstance().PeriodHours)
	}
	for i := 0; i < n; i++ {
		want := demand[i] == 1
		if sched[i] != want {
			t.Errorf("schedule[%d] = %v, want %v", i, sched[i], want)
		}
	}
}

func TestRunSellNeverStillRecordsCheckpointWork(t *testing.T) {
	n := 30
	newRes := constSeries(0, n)
	newRes[0] = 1
	res, err := Run(constSeries(1, n), newRes, testConfig(), sellNever{age: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 0 {
		t.Fatalf("SoldCount = %d, want 0", res.SoldCount())
	}
	if res.Instances[0].WorkedAtCheckpoint != 10 {
		t.Errorf("WorkedAtCheckpoint = %d, want 10", res.Instances[0].WorkedAtCheckpoint)
	}
	if res.Instances[0].Worked != 30 {
		t.Errorf("Worked = %d, want 30", res.Instances[0].Worked)
	}
}

func TestCostBreakdownAddAndTotal(t *testing.T) {
	a := CostBreakdown{OnDemand: 1, Upfront: 2, ReservedHourly: 3, SaleIncome: 4}
	b := CostBreakdown{OnDemand: 10, Upfront: 20, ReservedHourly: 30, SaleIncome: 40}
	a.Add(b)
	want := CostBreakdown{OnDemand: 11, Upfront: 22, ReservedHourly: 33, SaleIncome: 44}
	if a != want {
		t.Errorf("Add = %+v, want %+v", a, want)
	}
	if got := a.Total(); !almostEqual(got, 11+22+33-44, 1e-12) {
		t.Errorf("Total = %v", got)
	}
}

// TestPropertyEngineInvariants checks the paper's structural invariants
// on random inputs: o_t + r_t >= d_t, cost components non-negative, and
// the cost decomposition matches a re-derivation from the hour records.
func TestPropertyEngineInvariants(t *testing.T) {
	it := testInstance()
	f := func(rawDemand, rawRes []uint8, sellAge uint8) bool {
		n := len(rawDemand)
		if n == 0 {
			return true
		}
		if n > 120 {
			n = 120
		}
		demand := make([]int, n)
		newRes := make([]int, n)
		for i := 0; i < n; i++ {
			demand[i] = int(rawDemand[i] % 5)
			if i < len(rawRes) {
				newRes[i] = int(rawRes[i] % 3)
			}
		}
		age := int(sellAge)%it.PeriodHours + 1
		res, err := Run(demand, newRes, testConfig(), sellAlways{age: age})
		if err != nil {
			return false
		}
		var cost CostBreakdown
		for tt, h := range hourRows(t, demand, newRes, testConfig(), res) {
			if h.OnDemand+h.ActiveRes < h.Demand {
				return false // coverage invariant violated
			}
			if h.OnDemand < 0 || h.ActiveRes < 0 || h.Sold < 0 {
				return false
			}
			if h.Demand != demand[tt] || h.NewlyRes != newRes[tt] {
				return false
			}
			cost.OnDemand += float64(h.OnDemand) * it.OnDemandHourly
			cost.Upfront += float64(h.NewlyRes) * it.Upfront
			cost.ReservedHourly += float64(h.ActiveRes) * it.ReservedHourly
		}
		if !almostEqual(cost.OnDemand, res.Cost.OnDemand, 1e-6) ||
			!almostEqual(cost.Upfront, res.Cost.Upfront, 1e-6) ||
			!almostEqual(cost.ReservedHourly, res.Cost.ReservedHourly, 1e-6) {
			return false
		}
		// Each sold instance contributes a*R*rem/T exactly once.
		var income float64
		for _, inst := range res.Instances {
			if inst.SoldAt < 0 {
				continue
			}
			rem := inst.Start + it.PeriodHours - inst.SoldAt
			income += 0.8 * it.Upfront * float64(rem) / float64(it.PeriodHours)
		}
		return almostEqual(income, res.Cost.SaleIncome, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyWorkConservation: total worked hours across instances
// equals total demand served by reservations (demand minus on-demand).
func TestPropertyWorkConservation(t *testing.T) {
	f := func(rawDemand, rawRes []uint8) bool {
		n := len(rawDemand)
		if n == 0 {
			return true
		}
		if n > 100 {
			n = 100
		}
		demand := make([]int, n)
		newRes := make([]int, n)
		for i := 0; i < n; i++ {
			demand[i] = int(rawDemand[i] % 6)
			if i < len(rawRes) {
				newRes[i] = int(rawRes[i] % 2)
			}
		}
		res, err := Run(demand, newRes, testConfig(), KeepReserved{})
		if err != nil {
			return false
		}
		served := 0
		for _, h := range hourRows(t, demand, newRes, testConfig(), res) {
			served += h.Demand - h.OnDemand
		}
		worked := 0
		for _, inst := range res.Instances {
			worked += inst.Worked
		}
		return worked == served
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// perInstanceAndMulti implements both optional extensions; the engine
// must prefer the per-instance ages.
type perInstanceAndMulti struct{ sellAll bool }

func (perInstanceAndMulti) CheckpointAge(int) int        { return 5 }
func (perInstanceAndMulti) CheckpointAges(int) []int     { return []int{5, 10} }
func (p perInstanceAndMulti) ShouldSell(Checkpoint) bool { return p.sellAll }
func (perInstanceAndMulti) InstanceCheckpointAge(start, _, _ int) int {
	return 20 + start // distinct, recognizable age
}

func TestRunPerInstanceTakesPrecedenceOverMulti(t *testing.T) {
	n := 40
	newRes := constSeries(0, n)
	newRes[0] = 1
	newRes[2] = 1
	res, err := Run(constSeries(0, n), newRes, testConfig(), perInstanceAndMulti{sellAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 2 {
		t.Fatalf("SoldCount = %d, want 2", res.SoldCount())
	}
	if res.Instances[0].SoldAt != 20 {
		t.Errorf("first instance SoldAt = %d, want per-instance age 20", res.Instances[0].SoldAt)
	}
	if res.Instances[1].SoldAt != 2+22 {
		t.Errorf("second instance SoldAt = %d, want start+age 24", res.Instances[1].SoldAt)
	}
}

// multiAges sells at its second checkpoint only.
type multiAges struct{}

func (multiAges) CheckpointAge(int) int    { return 5 }
func (multiAges) CheckpointAges(int) []int { return []int{5, 15, 15, -3, 100} }
func (multiAges) ShouldSell(ck Checkpoint) bool {
	return ck.Age == 15
}

func TestRunMultiCheckpointDedupAndFilter(t *testing.T) {
	// Duplicate, negative and beyond-period ages must be cleaned up; the
	// instance is consulted at 5 (kept) and once at 15 (sold).
	n := 40
	newRes := constSeries(0, n)
	newRes[0] = 1
	res, err := Run(constSeries(0, n), newRes, testConfig(), multiAges{})
	if err != nil {
		t.Fatal(err)
	}
	if res.SoldCount() != 1 || res.Instances[0].SoldAt != 15 {
		t.Errorf("instances = %+v, want sold at 15", res.Instances)
	}
}
