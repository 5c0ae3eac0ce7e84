package core

import (
	"fmt"

	"rimarket/internal/pricing"
)

// Billing selects how a reserved instance's hourly fee is accounted in
// the per-instance offline analysis.
type Billing int

// Billing modes. Enums start at 1 so the zero value is invalid.
const (
	// BillWhenUsed charges the discounted rate alpha*p only for hours the
	// instance serves demand — the accounting used in the paper's
	// competitive-ratio proofs (Section IV.C, Eqs. 13, 15, 25).
	BillWhenUsed Billing = iota + 1
	// BillWhileActive charges alpha*p for every hour the instance is
	// active whether busy or idle — the accounting of the cost model
	// Eq. (1), which is also how EC2 bills a partial-upfront reservation.
	BillWhileActive
)

// String implements fmt.Stringer.
func (b Billing) String() string {
	switch b {
	case BillWhenUsed:
		return "bill-when-used"
	case BillWhileActive:
		return "bill-while-active"
	default:
		return fmt.Sprintf("Billing(%d)", int(b))
	}
}

// OfflineParams configures the per-instance offline optimum.
type OfflineParams struct {
	// Instance supplies R, p, alpha and T.
	Instance pricing.InstanceType
	// SellingDiscount is the paper's a.
	SellingDiscount float64
	// Billing selects the hourly-fee accounting; the proofs use
	// BillWhenUsed.
	Billing Billing
	// MinSellAge restricts the earliest sale age OptimalSell may pick.
	// The paper's benchmark OPT corresponding to A_{kT} only sells at
	// epsilon*T with epsilon in [k, 1] (Section IV.C: "we have
	// epsilon in [3/4, 1]"), so bound validation sets this to the
	// checkpoint age. Zero means unrestricted.
	MinSellAge int
}

// Validate reports whether the parameters are usable.
func (p OfflineParams) Validate() error {
	if err := p.Instance.Validate(); err != nil {
		return err
	}
	if p.SellingDiscount < 0 || p.SellingDiscount > 1 {
		return fmt.Errorf("core: selling discount %v outside [0, 1]", p.SellingDiscount)
	}
	if p.Billing != BillWhenUsed && p.Billing != BillWhileActive {
		return fmt.Errorf("core: invalid billing mode %v", p.Billing)
	}
	if p.MinSellAge < 0 || p.MinSellAge >= p.Instance.PeriodHours {
		return fmt.Errorf("core: MinSellAge %d outside [0, %d)", p.MinSellAge, p.Instance.PeriodHours)
	}
	return nil
}

// OfflineDecision is the outcome of the per-instance offline optimum.
type OfflineDecision struct {
	// Sell reports whether selling at any age beats keeping.
	Sell bool
	// SellAge is the optimal sale age in hours (valid when Sell).
	SellAge int
	// Cost is the optimal per-instance cost.
	Cost float64
	// KeepCost is the cost of never selling, for reference.
	KeepCost float64
}

// OptimalSell computes the optimal offline selling decision for one
// reserved instance, per Section IV.A: with the instance's full busy
// schedule known (schedule[h] is true iff the instance serves demand in
// hour h of its life, len(schedule) == T), scan every sale age
// e in [1, T-1] and compare with keeping.
//
// Selling at age e costs (in BillWhenUsed mode, the proofs' accounting)
//
//	R + alpha*p*x + p*y - a*R*(T-e)/T
//
// where x is the busy hours before e and y the busy hours from e on
// (those demands must be re-bought on-demand). Keeping costs
// R + alpha*p*(x+y). In BillWhileActive mode the alpha*p term charges
// e (respectively T) hours regardless of use.
//
// The scan counts the schedule's busy hours once, then walks the sale
// ages forward with a running x and takes y as the total minus x, so it
// makes no allocation.
func OptimalSell(schedule []bool, params OfflineParams) (OfflineDecision, error) {
	if err := params.Validate(); err != nil {
		return OfflineDecision{}, err
	}
	it := params.Instance
	T := it.PeriodHours
	if len(schedule) != T {
		return OfflineDecision{}, fmt.Errorf("core: schedule has %d hours, want the period %d", len(schedule), T)
	}

	p := it.OnDemandHourly
	ap := it.ReservedHourly
	R := it.Upfront
	a := params.SellingDiscount

	totalBusy := 0
	for _, busy := range schedule {
		if busy {
			totalBusy++
		}
	}

	var keepCost float64
	switch params.Billing {
	case BillWhenUsed:
		keepCost = R + ap*float64(totalBusy)
	default: // BillWhileActive
		keepCost = R + ap*float64(T)
	}

	minAge := params.MinSellAge
	if minAge < 1 {
		minAge = 1
	}
	best := OfflineDecision{Sell: false, SellAge: -1, Cost: keepCost, KeepCost: keepCost}
	x := 0 // busy hours before the sale age e
	for e := 1; e < T; e++ {
		if schedule[e-1] {
			x++
		}
		if e < minAge {
			continue
		}
		y := totalBusy - x // busy hours re-bought on-demand
		income := a * R * float64(T-e) / float64(T)
		var cost float64
		switch params.Billing {
		case BillWhenUsed:
			cost = R + ap*float64(x) + p*float64(y) - income
		default:
			cost = R + ap*float64(e) + p*float64(y) - income
		}
		if cost < best.Cost {
			best = OfflineDecision{Sell: true, SellAge: e, Cost: cost, KeepCost: keepCost}
		}
	}
	return best, nil
}

// CostIfSoldAt returns the per-instance cost of selling at the given
// age, under the same accounting as OptimalSell. It exists so analyses
// and tests can probe individual candidate sale points.
func CostIfSoldAt(schedule []bool, age int, params OfflineParams) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	it := params.Instance
	T := it.PeriodHours
	if len(schedule) != T {
		return 0, fmt.Errorf("core: schedule has %d hours, want the period %d", len(schedule), T)
	}
	if age < 0 || age > T {
		return 0, fmt.Errorf("core: sale age %d outside [0, %d]", age, T)
	}
	var x, y int
	for h, busy := range schedule {
		if !busy {
			continue
		}
		if h < age {
			x++
		} else {
			y++
		}
	}
	income := params.SellingDiscount * it.Upfront * float64(T-age) / float64(T)
	switch params.Billing {
	case BillWhenUsed:
		return it.Upfront + it.ReservedHourly*float64(x) + it.OnDemandHourly*float64(y) - income, nil
	default:
		return it.Upfront + it.ReservedHourly*float64(age) + it.OnDemandHourly*float64(y) - income, nil
	}
}

// CostIfKept returns the per-instance cost of holding the reservation
// for its whole period, under the same accounting as OptimalSell.
func CostIfKept(schedule []bool, params OfflineParams) (float64, error) {
	if err := params.Validate(); err != nil {
		return 0, err
	}
	it := params.Instance
	if len(schedule) != it.PeriodHours {
		return 0, fmt.Errorf("core: schedule has %d hours, want the period %d", len(schedule), it.PeriodHours)
	}
	busy := 0
	for _, b := range schedule {
		if b {
			busy++
		}
	}
	switch params.Billing {
	case BillWhenUsed:
		return it.Upfront + it.ReservedHourly*float64(busy), nil
	default:
		return it.Upfront + it.ReservedHourly*float64(it.PeriodHours), nil
	}
}

// ThresholdCost returns the per-instance cost incurred by the online
// algorithm A_{kT} on the given schedule, under the proofs' accounting
// (Eqs. 15 and 25): if the busy hours before the checkpoint are below
// break-even the instance is sold at k*T (busy hours afterwards are
// re-bought on-demand); otherwise it is kept to the end.
func ThresholdCost(schedule []bool, policy Threshold, billing Billing) (float64, error) {
	params := OfflineParams{
		Instance:        policy.instance,
		SellingDiscount: policy.discount,
		Billing:         billing,
	}
	ckAge := policy.CheckpointAge(policy.instance.PeriodHours)
	worked := 0
	for h := 0; h < ckAge && h < len(schedule); h++ {
		if schedule[h] {
			worked++
		}
	}
	if float64(worked) < policy.BreakEven() {
		return CostIfSoldAt(schedule, ckAge, params)
	}
	return CostIfKept(schedule, params)
}
