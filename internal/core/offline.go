package core

import (
	"fmt"

	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
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
// hour h of its life, len(schedule) == T), find the cheapest sale age
// e in [max(MinSellAge, 1), T-1] and compare it with keeping.
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
// Only the ages where x steps are candidates: the first allowed age
// max(MinSellAge, 1) and every later age right after a busy hour.
// Between two candidates x and y are fixed, so the cost moves only
// through the income a*R*(T-e)/T, which float rounding never lets grow
// with e, and in BillWhileActive mode through alpha*p*e, which it never
// lets shrink. The cost is therefore non-decreasing from a candidate to
// the next one, and as the strict < keeps the earliest of equal costs,
// the candidates alone yield, bit for bit, the decision a scan of every
// age would. OptimalSell counts the busy hours in one pass and prices
// the candidates in a second one over the ages from the first allowed
// one on; it makes no allocation.
func OptimalSell(schedule []bool, params OfflineParams) (OfflineDecision, error) {
	if err := params.check(len(schedule)); err != nil {
		return OfflineDecision{}, err
	}
	first := max(params.MinSellAge, 1)
	x, total := splitBusy(schedule, first)
	return params.optimum(schedule, first, x, total), nil
}

// CompetitiveCosts returns, from one count of the schedule, the cost
// of the online algorithm A_{kT} (as ThresholdCost) and the paper's
// restricted offline OPT for it (as OptimalSell with MinSellAge at the
// checkpoint age, Section IV.C), both at the policy's own selling
// discount.
func CompetitiveCosts(schedule []bool, policy Threshold, billing Billing) (online float64, opt OfflineDecision, err error) {
	params, ck := competitiveParams(policy, billing)
	if err := params.check(len(schedule)); err != nil {
		return 0, OfflineDecision{}, err
	}
	x, total := splitBusy(schedule, ck)
	return params.thresholdCost(policy, ck, x, total), params.optimum(schedule, ck, x, total), nil
}

// WindowCosts is CompetitiveCosts on the closed form of an instance's
// busy schedule instead of one bool per hour: demand is the demand over
// the instance's life, one hour per age, steps its window position over
// that life (simulate.Scratch.Positions) and worked its busy hours in
// all (its record's Worked). At age a the instance is busy iff demand[a]
// exceeds the position of the last step at or before a. Its results and
// errors are CompetitiveCosts' on that schedule, bit for bit, and it
// makes no allocation.
//
// It prices in one pass: the busy hours before the checkpoint age ck
// give the online cost, then the walk over the ages from ck on prices
// OptimalSell's candidate ages as they come. worked stands in for the
// total count a second pass would take; the walk still reads the last
// age, so a worked that disagrees with the window is an error. The walk
// is a cursor over the steps (stepWalk), so a pass can stop at any age
// and go on from there.
func WindowCosts(demand []int, steps []simulate.PositionStep, worked int, policy Threshold, billing Billing) (online float64, opt OfflineDecision, err error) {
	params, ck := competitiveParams(policy, billing)
	if err := params.check(len(demand)); err != nil {
		return 0, OfflineDecision{}, err
	}
	T := len(demand)
	if len(steps) == 0 || steps[0].Age != 0 {
		return 0, OfflineDecision{}, fmt.Errorf("core: position steps must start at age 0")
	}
	for i := 1; i < len(steps); i++ {
		if a := steps[i].Age; a <= steps[i-1].Age || a >= T {
			return 0, OfflineDecision{}, fmt.Errorf("core: position step age %d not increasing within [0, %d)", a, T)
		}
	}
	w := stepWalk{demand: demand, steps: steps}
	x := w.count(ck)
	online = params.thresholdCost(policy, ck, x, worked)
	opt = params.keepDecision(worked)
	first := max(ck, 1)
	x += w.count(first)
	if first < T {
		if cost := params.saleCost(first, x, worked); cost < opt.Cost {
			opt = OfflineDecision{Sell: true, SellAge: first, Cost: cost, KeepCost: opt.KeepCost}
		}
		x, opt = w.offerAfterBusy(&params, opt, T-1, x, worked)
	}
	if x += w.count(T); x != worked {
		return 0, OfflineDecision{}, fmt.Errorf("core: worked %d, but the window has %d busy hours", worked, x)
	}
	return online, opt, nil
}

// competitiveParams is the restricted OPT's parameters for A_{kT} at
// the policy's own discount, with its checkpoint age ck.
func competitiveParams(policy Threshold, billing Billing) (params OfflineParams, ck int) {
	ck = policy.CheckpointAge(policy.instance.PeriodHours)
	return OfflineParams{
		Instance:        policy.instance,
		SellingDiscount: policy.discount,
		Billing:         billing,
		MinSellAge:      ck,
	}, ck
}

// stepWalk walks an instance's ages in order over its demand window
// and position steps: age is the next age to read and k the step in
// force there.
type stepWalk struct {
	demand []int
	steps  []simulate.PositionStep
	age, k int
}

// segment returns the end of the stretch from the walk's age on that
// shares one position, capped at to, and that position.
func (w *stepWalk) segment(to int) (end, pos int) {
	for w.k+1 < len(w.steps) && w.steps[w.k+1].Age <= w.age {
		w.k++
	}
	end = to
	if w.k+1 < len(w.steps) {
		end = min(end, w.steps[w.k+1].Age)
	}
	return end, w.steps[w.k].Pos
}

// count walks to age to and returns the busy hours passed.
func (w *stepWalk) count(to int) int {
	n := 0
	for w.age < to {
		end, pos := w.segment(to)
		for _, d := range w.demand[w.age:end] {
			if d > pos {
				n++
			}
		}
		w.age = end
	}
	return n
}

// offerAfterBusy walks to age to and prices a sale at the age right
// after every busy hour it passes, as optimum does, given x, the busy
// hours before the walk's age, out of total. It returns x advanced
// past the walk and the best of best and those sales, the earliest of
// equal costs.
func (w *stepWalk) offerAfterBusy(p *OfflineParams, best OfflineDecision, to, x, total int) (int, OfflineDecision) {
	for w.age < to {
		end, pos := w.segment(to)
		for a := w.age; a < end; a++ {
			if w.demand[a] > pos {
				x++
				if cost := p.saleCost(a+1, x, total); cost < best.Cost {
					best = OfflineDecision{Sell: true, SellAge: a + 1, Cost: cost, KeepCost: best.KeepCost}
				}
			}
		}
		w.age = end
	}
	return x, best
}

// CostIfSoldAt returns the per-instance cost of selling at the given
// age, under the same accounting as OptimalSell. It exists so analyses
// and tests can probe individual candidate sale points.
func CostIfSoldAt(schedule []bool, age int, params OfflineParams) (float64, error) {
	if err := params.check(len(schedule)); err != nil {
		return 0, err
	}
	if T := params.Instance.PeriodHours; age < 0 || age > T {
		return 0, fmt.Errorf("core: sale age %d outside [0, %d]", age, T)
	}
	x, total := splitBusy(schedule, age)
	return params.saleCost(age, x, total), nil
}

// CostIfKept returns the per-instance cost of holding the reservation
// for its whole period, under the same accounting as OptimalSell.
func CostIfKept(schedule []bool, params OfflineParams) (float64, error) {
	if err := params.check(len(schedule)); err != nil {
		return 0, err
	}
	_, total := splitBusy(schedule, 0)
	return params.keepCost(total), nil
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
	if err := params.check(len(schedule)); err != nil {
		return 0, err
	}
	ck := policy.CheckpointAge(policy.instance.PeriodHours)
	x, total := splitBusy(schedule, ck)
	return params.thresholdCost(policy, ck, x, total), nil
}

// check validates the parameters and the length of the schedule, or
// of the demand window that stands for it.
func (p OfflineParams) check(hours int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if T := p.Instance.PeriodHours; hours != T {
		return fmt.Errorf("core: schedule has %d hours, want the period %d", hours, T)
	}
	return nil
}

// splitBusy counts, in one pass, the schedule's busy hours before age
// and in total.
func splitBusy(schedule []bool, age int) (before, total int) {
	before = countBusy(schedule[:age])
	return before, before + countBusy(schedule[age:])
}

// countBusy returns the number of busy hours in hours.
func countBusy(hours []bool) int {
	n := 0
	for _, busy := range hours {
		if busy {
			n++
		}
	}
	return n
}

// saleCost is the cost of selling at age e with x busy hours before e
// out of total; the one cost formula every sale price goes through. It
// takes a pointer so the scan prices each candidate without copying the
// parameters.
func (p *OfflineParams) saleCost(e, x, total int) float64 {
	T := p.Instance.PeriodHours
	R := p.Instance.Upfront
	y := total - x // busy hours re-bought on-demand
	income := p.SellingDiscount * R * float64(T-e) / float64(T)
	if p.Billing == BillWhenUsed {
		return R + p.Instance.ReservedHourly*float64(x) + p.Instance.OnDemandHourly*float64(y) - income
	}
	return R + p.Instance.ReservedHourly*float64(e) + p.Instance.OnDemandHourly*float64(y) - income
}

// keepCost is the cost of never selling an instance busy total hours.
func (p *OfflineParams) keepCost(total int) float64 {
	if p.Billing == BillWhenUsed {
		return p.Instance.Upfront + p.Instance.ReservedHourly*float64(total)
	}
	return p.Instance.Upfront + p.Instance.ReservedHourly*float64(p.Instance.PeriodHours)
}

// thresholdCost is A_{kT}'s cost given x, the busy hours before its
// checkpoint age ck, out of total.
func (p *OfflineParams) thresholdCost(policy Threshold, ck, x, total int) float64 {
	if float64(x) < policy.BreakEven() {
		return p.saleCost(ck, x, total)
	}
	return p.keepCost(total)
}

// optimum prices OptimalSell's candidate sale ages given x, the busy
// hours before age from, out of total; from is at most the first
// allowed age max(MinSellAge, 1).
func (p *OfflineParams) optimum(schedule []bool, from, x, total int) OfflineDecision {
	best := p.keepDecision(total)
	T := len(schedule)
	first := max(p.MinSellAge, 1)
	if first >= T {
		return best
	}
	x += countBusy(schedule[from:first])
	for e := first; e < T; e++ {
		if e > first {
			if !schedule[e-1] {
				continue // same x as e-1 and no cheaper
			}
			x++
		}
		if cost := p.saleCost(e, x, total); cost < best.Cost {
			best = OfflineDecision{Sell: true, SellAge: e, Cost: cost, KeepCost: best.KeepCost}
		}
	}
	return best
}

// keepDecision is the decision to keep an instance busy total hours,
// which every sale must beat.
func (p *OfflineParams) keepDecision(total int) OfflineDecision {
	keep := p.keepCost(total)
	return OfflineDecision{Sell: false, SellAge: -1, Cost: keep, KeepCost: keep}
}
