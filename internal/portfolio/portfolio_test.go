package portfolio

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/marketplace"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// card: p = 1, R = 20, alpha = 0.25, T = 40 (theta = 2).
func card(name string) pricing.InstanceType {
	return pricing.InstanceType{
		Name:           name,
		OnDemandHourly: 1.0,
		Upfront:        20,
		ReservedHourly: 0.25,
		PeriodHours:    40,
	}
}

func a3t4Factory(t *testing.T) func(pricing.InstanceType) (simulate.SellingPolicy, error) {
	t.Helper()
	return func(it pricing.InstanceType) (simulate.SellingPolicy, error) {
		return core.NewA3T4(it, 0.8)
	}
}

func idleService(name string) Service {
	demand := make([]int, 40)
	demand[0] = 1 // one busy hour triggers one reservation, then idle
	return Service{Name: name, Instance: card(name + ".large"), Demand: demand}
}

func busyService(name string) Service {
	demand := make([]int, 40)
	for i := range demand {
		demand[i] = 2
	}
	return Service{Name: name, Instance: card(name + ".large"), Demand: demand}
}

func TestServiceValidate(t *testing.T) {
	tests := []struct {
		name   string
		svc    Service
		wantOK bool
	}{
		{name: "valid", svc: busyService("web"), wantOK: true},
		{name: "no name", svc: Service{Instance: card("x"), Demand: []int{1}}},
		{name: "bad instance", svc: Service{Name: "x", Demand: []int{1}}},
		{name: "empty demand", svc: Service{Name: "x", Instance: card("x")}},
		{name: "negative demand", svc: Service{Name: "x", Instance: card("x"), Demand: []int{-1}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.svc.Validate()
			if tt.wantOK != (err == nil) {
				t.Errorf("Validate = %v, wantOK %v", err, tt.wantOK)
			}
		})
	}
}

func TestEvaluateValidation(t *testing.T) {
	cfg := Config{SellingDiscount: 0.8}
	if _, err := Evaluate(nil, cfg); err == nil {
		t.Error("empty portfolio accepted")
	}
	if _, err := Evaluate([]Service{idleService("a"), idleService("a")}, cfg); err == nil {
		t.Error("duplicate service accepted")
	}
	bad := idleService("a")
	bad.Demand[3] = -1
	if _, err := Evaluate([]Service{bad}, cfg); err == nil {
		t.Error("invalid service accepted")
	}
	if _, err := Evaluate([]Service{idleService("a")}, Config{SellingDiscount: 5}); err == nil {
		t.Error("invalid engine config accepted")
	}
}

func TestEvaluateIdlePortfolioSells(t *testing.T) {
	services := []Service{idleService("batch"), busyService("web")}
	cfg := Config{SellingDiscount: 0.8, Policy: a3t4Factory(t)}
	res, err := Evaluate(services, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Services) != 2 {
		t.Fatalf("services = %d", len(res.Services))
	}
	batch, web := res.Services[0], res.Services[1]
	if len(batch.SoldInstances) != 1 {
		t.Errorf("idle service sold %d, want 1", len(batch.SoldInstances))
	}
	// Sold at 3T/4 = age 30 of 40 -> 10 hours remaining.
	if len(batch.SoldInstances) == 1 && batch.SoldInstances[0] != 10 {
		t.Errorf("remaining = %d, want 10", batch.SoldInstances[0])
	}
	if batch.Savings() <= 0 {
		t.Errorf("idle service savings = %v, want positive", batch.Savings())
	}
	if len(web.SoldInstances) != 0 {
		t.Errorf("busy service sold %d, want 0", len(web.SoldInstances))
	}
	if !almostEqual(web.PolicyCost, web.KeepCost, 1e-9) {
		t.Errorf("busy service costs diverge: %v vs %v", web.PolicyCost, web.KeepCost)
	}
	if res.PolicyTotal() >= res.KeepTotal() {
		t.Errorf("portfolio did not save: %v vs %v", res.PolicyTotal(), res.KeepTotal())
	}
	if f := res.SavingsFraction(); f <= 0 || f >= 1 {
		t.Errorf("SavingsFraction = %v", f)
	}
}

func TestEvaluateNilPolicyIsBaseline(t *testing.T) {
	res, err := Evaluate([]Service{idleService("a")}, Config{SellingDiscount: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if res.SavingsFraction() != 0 {
		t.Errorf("baseline savings = %v, want 0", res.SavingsFraction())
	}
}

func TestEvaluateCustomPurchaser(t *testing.T) {
	svc := busyService("web")
	svc.Purchaser = purchasing.NewWangOnline(svc.Instance)
	res, err := Evaluate([]Service{svc}, Config{SellingDiscount: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	// Wang reserves later than AllReserved; with beta_wang = 20/(1*0.75)
	// = 26.7 h of on-demand per level, both levels reserve at hour 26.
	if res.Services[0].Reserved != 2 {
		t.Errorf("Reserved = %d, want 2", res.Services[0].Reserved)
	}
}

func TestEvaluatePolicyFactoryError(t *testing.T) {
	cfg := Config{
		SellingDiscount: 0.8,
		Policy: func(pricing.InstanceType) (simulate.SellingPolicy, error) {
			return core.NewA3T4(pricing.InstanceType{}, 0.8) // invalid card
		},
	}
	if _, err := Evaluate([]Service{idleService("a")}, cfg); err == nil {
		t.Error("factory error swallowed")
	}
}

func TestListOnMarket(t *testing.T) {
	services := []Service{idleService("batch"), idleService("etl")}
	cfg := Config{SellingDiscount: 0.8, Policy: a3t4Factory(t)}
	res, err := Evaluate(services, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := marketplace.NewOrderBook(marketplace.AmazonFee)
	if err != nil {
		t.Fatal(err)
	}
	listed, err := ListOnMarket(m, res, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if listed != 2 {
		t.Fatalf("listed = %d, want 2", listed)
	}
	open := m.OpenBook("batch.large")
	if len(open) != 1 {
		t.Fatalf("open = %d", len(open))
	}
	// Ask = a * R * remaining/T = 0.8 * 20 * 10/40 = 4.
	if !almostEqual(open[0].EffectiveAsk, 4, 1e-9) {
		t.Errorf("ask = %v, want 4", open[0].EffectiveAsk)
	}
	// Seller is the service name.
	if !strings.HasPrefix(open[0].Seller, "batch") {
		t.Errorf("seller = %q", open[0].Seller)
	}
	if _, err := ListOnMarket(m, res, 0); err == nil {
		t.Error("zero discount accepted")
	}
}

// TestEvaluateMatchesRun pins Evaluate, which replays every service on
// one shared Scratch, to a fresh simulate.Run per service: costs bit
// for bit and the sold instances' remaining hours in reservation
// order. The services differ in card, horizon and demand shape, and a
// long one precedes short ones, so the scratch is reused dirty.
func TestEvaluateMatchesRun(t *testing.T) {
	bursty := func(name string, hours int, seed uint32) Service {
		demand := make([]int, hours)
		x := seed
		for h := range demand {
			x = x*1664525 + 1013904223
			if x>>28 < 5 { // busy about a third of the hours
				demand[h] = int(x>>24) % 4
			}
		}
		return Service{Name: name, Instance: card(name + ".large"), Demand: demand}
	}
	long := bursty("batch", 160, 7)
	long.Instance.PeriodHours = 64
	services := []Service{long, bursty("etl", 90, 11), idleService("cron"), busyService("web"), bursty("ml", 50, 3)}

	policies := map[string]func(pricing.InstanceType) (simulate.SellingPolicy, error){
		"multi-checkpoint": func(it pricing.InstanceType) (simulate.SellingPolicy, error) {
			return core.NewPaperMultiThreshold(it, 0.8)
		},
		"A3T4":          a3t4Factory(t),
		"keep-reserved": nil,
	}
	for name, factory := range policies {
		t.Run(name, func(t *testing.T) {
			cfg := Config{SellingDiscount: 0.8, MarketFee: 0.12, Policy: factory}
			res, err := Evaluate(services, cfg)
			if err != nil {
				t.Fatal(err)
			}
			sold := 0
			for i, svc := range services {
				plan, err := purchasing.PlanReservations(svc.Demand, svc.Instance.PeriodHours, purchasing.AllReserved{})
				if err != nil {
					t.Fatal(err)
				}
				engCfg := simulate.Config{Instance: svc.Instance, SellingDiscount: cfg.SellingDiscount, MarketFee: cfg.MarketFee}
				keep, err := simulate.Run(svc.Demand, plan, engCfg, simulate.KeepReserved{})
				if err != nil {
					t.Fatal(err)
				}
				policy := simulate.SellingPolicy(simulate.KeepReserved{})
				if factory != nil {
					if policy, err = factory(svc.Instance); err != nil {
						t.Fatal(err)
					}
				}
				run, err := simulate.Run(svc.Demand, plan, engCfg, policy)
				if err != nil {
					t.Fatal(err)
				}
				var want []int
				for _, inst := range run.Instances {
					if inst.SoldAt >= 0 {
						want = append(want, inst.Start+svc.Instance.PeriodHours-inst.SoldAt)
					}
				}
				got := res.Services[i]
				if math.Float64bits(got.KeepCost) != math.Float64bits(keep.Cost.Total()) {
					t.Errorf("%s: KeepCost = %v, Run gives %v", svc.Name, got.KeepCost, keep.Cost.Total())
				}
				if math.Float64bits(got.PolicyCost) != math.Float64bits(run.Cost.Total()) {
					t.Errorf("%s: PolicyCost = %v, Run gives %v", svc.Name, got.PolicyCost, run.Cost.Total())
				}
				if !reflect.DeepEqual(got.SoldInstances, want) {
					t.Errorf("%s: SoldInstances = %v, Run gives %v", svc.Name, got.SoldInstances, want)
				}
				sold += len(want)
			}
			if factory != nil && sold == 0 {
				t.Error("no service sold anything; the policy never fired")
			}
		})
	}
}
