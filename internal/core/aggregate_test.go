package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"rimarket/internal/simulate"
)

func mustA(t *testing.T, fraction, discount float64) Threshold {
	t.Helper()
	p, err := NewThreshold(testInstance(), discount, fraction)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAggregateRunValidation(t *testing.T) {
	p := mustA(t, FractionT2, 0.8)
	if _, err := AggregateRun([]int{1, 2}, []int{0}, p); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AggregateRun([]int{-1}, []int{0}, p); err == nil {
		t.Error("negative demand accepted")
	}
	if _, err := AggregateRun([]int{1}, []int{-1}, p); err == nil {
		t.Error("negative reservations accepted")
	}
}

func TestAggregateRunIdleInstanceSold(t *testing.T) {
	// One idle instance: Algorithm 1 must sell it at its checkpoint.
	it := testInstance() // T = 40
	p := mustA(t, Fraction3T4, 0.8)
	n := 40
	demand := make([]int, n)
	newRes := make([]int, n)
	newRes[0] = 1
	res, err := AggregateRun(demand, newRes, p)
	if err != nil {
		t.Fatal(err)
	}
	ck := p.CheckpointAge(it.PeriodHours) // 30
	for t2, s := range res.Sold {
		want := 0
		if t2 == ck {
			want = 1
		}
		if s != want {
			t.Errorf("Sold[%d] = %d, want %d", t2, s, want)
		}
	}
	// After the sale the instance is inactive; after the historical
	// update its past activity is erased too.
	for t2 := 0; t2 < n; t2++ {
		if res.Active[t2] != 0 {
			t.Errorf("Active[%d] = %d, want 0 after sale and history rewrite", t2, res.Active[t2])
		}
	}
}

func TestAggregateRunBusyInstanceKept(t *testing.T) {
	it := testInstance()
	p := mustA(t, Fraction3T4, 0.8)
	n := 40
	demand := make([]int, n)
	for i := range demand {
		demand[i] = 1
	}
	newRes := make([]int, n)
	newRes[0] = 1
	res, err := AggregateRun(demand, newRes, p)
	if err != nil {
		t.Fatal(err)
	}
	for t2, s := range res.Sold {
		if s != 0 {
			t.Errorf("Sold[%d] = %d, want 0", t2, s)
		}
	}
	// Cost = R + alpha*p*T (always reserved, never on-demand).
	want := it.Upfront + it.ReservedHourly*float64(n)
	if !almostEqual(res.Cost, want, 1e-9) {
		t.Errorf("Cost = %v, want %v", res.Cost, want)
	}
}

func TestAggregateRunFigure1Shape(t *testing.T) {
	// The Fig. 1 scenario: a batch of two instances reserved together,
	// two newer instances reserved later, and enough idle hours that one
	// of the original batch idles below break-even while the other works.
	p := mustA(t, Fraction3T4, 0.8) // T = 40, ck(3T/4) = 30
	beta := p.BreakEven()           // 16 hours
	if !almostEqual(beta, 16, 1e-9) {
		t.Fatalf("BreakEven = %v, want 16", beta)
	}
	n := 45
	demand := make([]int, n)
	newRes := make([]int, n)
	newRes[0] = 2  // inst_1, inst_2
	newRes[10] = 2 // inst_3, inst_4 (more remaining period -> idle first)
	// Demand 3 for hours 0..29: with 2 then 4 reservations, the idle
	// ones are the newest; inst_2 (higher batch index) works always,
	// inst_1 works while demand >= 2... demand 3 of 4 active: one idle,
	// and the idle one is among the newer batch, so inst_1 works too.
	for i := 0; i < 12; i++ {
		demand[i] = 3
	}
	// After hour 12, demand drops to 1: only inst_2 works; inst_1 idles
	// (18 idle hours > 30 - 16 = 14 -> inst_1's w = 12 < 16 -> sell).
	for i := 12; i < n; i++ {
		demand[i] = 1
	}
	res, err := AggregateRun(demand, newRes, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sold[30] != 1 {
		t.Errorf("Sold[30] = %d, want exactly the under-worked batch-mate", res.Sold[30])
	}
	total := 0
	for _, s := range res.Sold {
		total += s
	}
	// inst_3/inst_4 reach their checkpoint at hour 40: worked only hours
	// 10 and 11 (2 < 16) -> both sold; grand total 3 within horizon 45.
	if total != 3 {
		t.Errorf("total sold = %d, want 3", total)
	}
}

// TestAggregateMatchesEngineNoSales: with a break-even of zero nothing
// is ever sold and the two implementations must agree exactly on r and o.
func TestAggregateMatchesEngineNoSales(t *testing.T) {
	it := testInstance()
	p := mustA(t, FractionT2, 0) // a = 0 -> beta = 0 -> never sell
	demand := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}
	newRes := []int{2, 0, 1, 0, 1, 2, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
	agg, err := AggregateRun(demand, newRes, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := simulate.Config{Instance: it, SellingDiscount: 0}
	eng, err := simulate.Run(demand, newRes, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := simulate.HourRows(demand, newRes, it.PeriodHours, eng.Instances)
	if err != nil {
		t.Fatal(err)
	}
	for t2 := range demand {
		if agg.Active[t2] != rows[t2].ActiveRes {
			t.Errorf("hour %d: aggregate r = %d, engine r = %d", t2, agg.Active[t2], rows[t2].ActiveRes)
		}
		if agg.OnDemand[t2] != rows[t2].OnDemand {
			t.Errorf("hour %d: aggregate o = %d, engine o = %d", t2, agg.OnDemand[t2], rows[t2].OnDemand)
		}
		if agg.Sold[t2] != 0 || rows[t2].Sold != 0 {
			t.Errorf("hour %d: unexpected sale", t2)
		}
	}
	if !almostEqual(agg.Cost, eng.Cost.Total(), 1e-6) {
		t.Errorf("aggregate cost %v != engine cost %v", agg.Cost, eng.Cost.Total())
	}
}

// TestPropertyAggregateMatchesEngineSingleInstance: with exactly one
// reservation the historical-rewrite ambiguity vanishes, so the literal
// Algorithm 1 and the instance-level engine must make identical
// decisions for random demand.
func TestPropertyAggregateMatchesEngineSingleInstance(t *testing.T) {
	it := testInstance()
	f := func(raw []uint8, startSel, fracSel, aSel uint8) bool {
		n := it.PeriodHours + 20
		demand := make([]int, n)
		for i := range demand {
			if i < len(raw) {
				demand[i] = int(raw[i] % 3)
			}
		}
		newRes := make([]int, n)
		start := int(startSel) % 10
		newRes[start] = 1
		fraction := []float64{Fraction3T4, FractionT2, FractionT4}[int(fracSel)%3]
		a := float64(int(aSel)%11) / 10
		p, err := NewThreshold(it, a, fraction)
		if a == 0 {
			p, err = NewThreshold(it, 0.001, fraction) // beta ~ 0, still valid
		}
		if err != nil {
			return false
		}
		agg, err := AggregateRun(demand, newRes, p)
		if err != nil {
			return false
		}
		cfg := simulate.Config{Instance: it, SellingDiscount: p.discount}
		eng, err := simulate.Run(demand, newRes, cfg, p)
		if err != nil {
			return false
		}
		rows, err := simulate.HourRows(demand, newRes, it.PeriodHours, eng.Instances)
		if err != nil {
			return false
		}
		engSold := make([]int, n)
		for t2, h := range rows {
			engSold[t2] = h.Sold
		}
		return reflect.DeepEqual(agg.Sold, engSold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyAggregateMatchesEngineMultiBatchFirstDecision: with many
// instances but a horizon that ends at the first checkpoint, no
// history rewrite can affect another window, so decisions must agree.
func TestPropertyAggregateMatchesEngineMultiBatchFirstDecision(t *testing.T) {
	it := testInstance()
	f := func(raw []uint8, resRaw []uint8, aSel uint8) bool {
		if len(resRaw) == 0 {
			return true
		}
		p, err := NewAT2(it, float64(int(aSel)%10+1)/10)
		if err != nil {
			return false
		}
		ck := p.CheckpointAge(it.PeriodHours)
		n := ck + 1 // horizon ends right at the first batch's checkpoint
		demand := make([]int, n)
		for i := range demand {
			if i < len(raw) {
				demand[i] = int(raw[i] % 4)
			}
		}
		newRes := make([]int, n)
		newRes[0] = int(resRaw[0]%3) + 1
		if len(resRaw) > 1 {
			newRes[1+int(resRaw[1])%(n-1)] += int(resRaw[1] % 2)
		}
		agg, err := AggregateRun(demand, newRes, p)
		if err != nil {
			return false
		}
		cfg := simulate.Config{Instance: it, SellingDiscount: p.discount}
		eng, err := simulate.Run(demand, newRes, cfg, p)
		if err != nil {
			return false
		}
		rows, err := simulate.HourRows(demand, newRes, it.PeriodHours, eng.Instances)
		if err != nil {
			return false
		}
		engSold := make([]int, n)
		for t2, h := range rows {
			engSold[t2] = h.Sold
		}
		return reflect.DeepEqual(agg.Sold, engSold)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
