// Package purchasing implements the four reservation-behavior
// algorithms the paper uses to imitate how users acquire reserved
// instances before any selling happens (Section VI.A):
//
//   - AllReserved — reserve whenever demand exceeds active reservations;
//   - Random — reserve toward a random target at each hour;
//   - WangOnline — the deterministic online purchasing algorithm of
//     Wang et al., ICAC 2013 ("To Reserve or Not to Reserve"): a demand
//     level is reserved once its on-demand spend inside one reservation-
//     period window reaches the reservation break-even point;
//   - WangVariant — the same with a smaller break-even point.
//
// PlanReservations drives a policy over a demand trace and emits the
// n_t series the selling engine consumes; per the paper's pipeline,
// planning happens before (and independently of) selling.
package purchasing

import (
	"fmt"
	"math/rand"

	"rimarket/internal/pricing"
)

// Policy decides how many instances to newly reserve at each hour.
// PlanReservations calls Reserve exactly once per hour, in order from
// hour 0, so implementations may keep internal running state.
type Policy interface {
	// Reserve returns the number of instances to reserve at hour t given
	// the hour's demand and active, the number of the policy's own
	// reservations still running at t: PlanReservations counts those
	// made at hours s with t-periodHours < s < t, so a policy need not
	// track its own expiries. The returned count must be non-negative.
	Reserve(t, demand, active int) int
}

// checker is a Policy that can tell before hour 0 that it cannot plan.
type checker interface{ check() error }

// PlanReservations replays demand through the policy and returns the
// per-hour new-reservation series n_t. Reservations are active for
// periodHours hours from the hour they are made; no selling occurs at
// this stage, matching the paper's dataset-preparation step.
func PlanReservations(demand []int, periodHours int, p Policy) ([]int, error) {
	newRes := make([]int, len(demand))
	if err := PlanReservationsInto(newRes, demand, periodHours, p); err != nil {
		return nil, err
	}
	return newRes, nil
}

// PlanReservationsInto is PlanReservations writing n_t into newRes,
// which must be as long as demand, instead of a new slice: every hour
// is written before it is read, so newRes may hold anything. On error
// newRes holds a partial plan.
func PlanReservationsInto(newRes, demand []int, periodHours int, p Policy) error {
	if periodHours <= 0 {
		return fmt.Errorf("purchasing: period %d must be positive", periodHours)
	}
	if p == nil {
		return fmt.Errorf("purchasing: nil policy")
	}
	if len(newRes) != len(demand) {
		return fmt.Errorf("purchasing: plan buffer holds %d hours, demand %d", len(newRes), len(demand))
	}
	if c, ok := p.(checker); ok {
		if err := c.check(); err != nil {
			return err
		}
	}
	active := 0
	for t, d := range demand {
		if d < 0 {
			return fmt.Errorf("purchasing: negative demand %d at hour %d", d, t)
		}
		if t >= periodHours { // reservations made at t-periodHours lapse
			active -= newRes[t-periodHours]
		}
		n := p.Reserve(t, d, active)
		if n < 0 {
			return fmt.Errorf("purchasing: policy returned negative count %d at hour %d", n, t)
		}
		newRes[t] = n
		active += n
	}
	return nil
}

// Behaviors names the paper's four reservation-behavior imitators
// (Section VI.A) in presentation order.
var Behaviors = []string{"all-reserved", "random", "wang-online", "wang-variant"}

// ForBehavior returns the purchaser a behavior name selects for the
// instance card; seed seeds the random behavior. It is Planners.For on
// planners of its own.
func ForBehavior(name string, it pricing.InstanceType, seed int64) (Policy, error) {
	return new(Planners).For(name, it, seed)
}

// Planners is one planning worker's purchasers, reused from one user
// to the next: a Wang planner keeps the window memory its largest plan
// grew, and the random behavior re-seeds one source. The zero value is
// ready. Planners are not safe for concurrent use.
type Planners struct {
	wang   WangOnline
	random Random
}

// For returns the purchaser a behavior name selects for the instance
// card, seeded with seed, ready to plan a new demand series: it plans
// exactly as ForBehavior's would. The purchaser stays valid until the
// next call to For.
func (ps *Planners) For(name string, it pricing.InstanceType, seed int64) (Policy, error) {
	switch name {
	case "all-reserved":
		return AllReserved{}, nil
	case "random":
		ps.random.seed(seed)
		return &ps.random, nil
	case "wang-online", "wang-variant":
		ps.wang.Instance, ps.wang.BreakEvenScale = it, 1
		if name == "wang-variant" {
			ps.wang.BreakEvenScale = 0.5
		}
		ps.wang.reset()
		return &ps.wang, nil
	default:
		return nil, fmt.Errorf("purchasing: unknown behavior %q", name)
	}
}

// SamePlan reports whether the behavior plans every demand series on
// card b exactly as on card a, seed for seed, so a plan made on one
// card serves the other. all-reserved and random read only the card's
// PeriodHours. The Wang behaviors also read its break-even point;
// sharing their plans pays only in sessions that trade two cards with
// one break-even point, such as the d2 family, and no benchmarked
// session does, so SamePlan shares none of them, nor an unknown
// behavior's.
func SamePlan(name string, a, b pricing.InstanceType) bool {
	switch name {
	case "all-reserved", "random":
		return a.PeriodHours == b.PeriodHours
	default:
		return false
	}
}

// AllReserved reserves enough instances at every hour to cover all
// demand with reservations — the paper's stand-in for users whose
// demands are stable enough that they reserve everything.
type AllReserved struct{}

// Reserve implements Policy.
func (AllReserved) Reserve(_, demand, active int) int {
	if demand > active {
		return demand - active
	}
	return 0
}

// Random reserves toward a uniformly random target in [0, demand] at
// each hour — the paper's second behavior imitator.
// Construct with NewRandom so runs are reproducible from a seed.
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a Random policy seeded for reproducibility.
func NewRandom(seed int64) *Random {
	r := new(Random)
	r.seed(seed)
	return r
}

// seed resets r's source to seed's stream: Seed replaces a source's
// whole state, so a re-seeded source draws what a new one would.
func (r *Random) seed(seed int64) {
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(seed))
		return
	}
	r.rng.Seed(seed)
}

// Reserve implements Policy.
func (r *Random) Reserve(_, demand, active int) int {
	if demand <= 0 {
		return 0
	}
	target := r.rng.Intn(demand + 1)
	if target > active {
		return target - active
	}
	return 0
}

// WangOnline is the deterministic online purchasing algorithm of Wang
// et al. (ICAC 2013): demand is decomposed into unit levels (level j is
// occupied at hour t iff d_t > j); a level above the active
// reservations pays on-demand, and once a level's on-demand hours
// inside a sliding window of one reservation period reach the
// break-even point
//
//	beta = R / (p * (1 - alpha))
//
// the level is covered with a new reservation and its window restarts.
// BreakEvenScale shrinks beta for the paper's fourth behavior imitator
// (WangVariant).
//
// Each level's window is a counter, not a list of hours: hour t charges
// exactly the levels [active, d_t), so the planner keeps that span per
// hour for one period and, when the hour leaves the window, decrements
// the levels it charged that have not restarted since. The active count
// is the one PlanReservations passes, so plan with the card's own
// PeriodHours.
//
// Until the first reservation no level has restarted and active is 0,
// so hour t charges exactly [0, d_t), and level j's count is the number
// of window hours with demand above j. The planner then keeps only the
// window's demand histogram and its busy-hour count, level 0's count
// and so the largest, at O(1) per hour. The first hour that can reserve
// is the first busy hour whose charge lifts the busy count to beta;
// there a suffix sum turns the histogram into the per-level counts the
// walk would have kept, and the walk runs from that hour on.
//
// A WangOnline plans one demand series, on a card that passes
// InstanceType.Validate (PlanReservations refuses it otherwise);
// Planners.For readies a reused one for the next.
type WangOnline struct {
	// Instance supplies R, p, alpha and the window length PeriodHours.
	Instance pricing.InstanceType
	// BreakEvenScale multiplies the break-even point; 1 is the original
	// algorithm, values in (0, 1) reserve more eagerly. Zero means 1.
	BreakEvenScale float64

	beta   float64
	spans  []span  // spans[t%PeriodHours]: the levels hour t charged
	levels []level // indexed by demand level
	// lazy holds from reset until the first hour that may reserve.
	// Meanwhile levels[v-1].count counts the window hours with demand
	// exactly v, and busy those with any demand.
	lazy bool
	busy int
}

// span is the half-open range of levels one hour charged on-demand.
type span struct{ lo, hi int }

// level is one demand level's window: count on-demand hours in the
// last period, counted from hour since (one past its last reservation).
type level struct{ count, since int }

// NewWangOnline returns the ICAC'13 online purchasing policy.
func NewWangOnline(it pricing.InstanceType) *WangOnline {
	return &WangOnline{Instance: it, BreakEvenScale: 1}
}

// NewWangVariant returns the paper's fourth behavior imitator: the
// ICAC'13 algorithm with a smaller break-even point (half by default).
func NewWangVariant(it pricing.InstanceType) *WangOnline {
	return &WangOnline{Instance: it, BreakEvenScale: 0.5}
}

// breakEvenHours returns the number of on-demand hours after which
// reserving is cheaper, scaled by BreakEvenScale.
func (w *WangOnline) breakEvenHours() float64 {
	scale := w.BreakEvenScale
	if scale == 0 {
		scale = 1
	}
	it := w.Instance
	return scale * it.Upfront / (it.OnDemandHourly * (1 - it.Alpha()))
}

// reset readies w to plan a new demand series on its Instance and
// BreakEvenScale, keeping the memory an earlier plan grew. The span
// ring is not cleared: Reserve reads the slot of hour t-period only
// once that hour belongs to the current plan.
func (w *WangOnline) reset() {
	w.beta = w.breakEvenHours()
	if p := w.Instance.PeriodHours; cap(w.spans) >= p {
		w.spans = w.spans[:p]
	} else {
		w.spans = make([]span, p)
	}
	w.levels = w.levels[:0]
	w.lazy, w.busy = true, 0
}

// check implements checker: the planner's window and break-even point
// come from its card.
func (w *WangOnline) check() error {
	if err := w.Instance.Validate(); err != nil {
		return fmt.Errorf("purchasing: wang planner: %w", err)
	}
	return nil
}

// Reserve implements Policy.
func (w *WangOnline) Reserve(t, demand, active int) int {
	if w.spans == nil {
		w.reset()
	}
	// Hour t-period leaves the window; its slot becomes hour t's.
	period := len(w.spans)
	sp := &w.spans[t%period]
	for len(w.levels) < demand {
		w.levels = append(w.levels, level{})
	}
	if w.lazy {
		if t >= period && sp.hi > 0 {
			w.levels[sp.hi-1].count--
			w.busy--
		}
		// Level 0's count, the tallest, would reach busy+1 this hour.
		if active == 0 && (demand == 0 || float64(w.busy+1) < w.beta) {
			if demand > 0 {
				w.levels[demand-1].count++
				w.busy++
			}
			*sp = span{hi: demand}
			return 0
		}
		// Leave the regime: level j counts the window hours above j.
		w.lazy = false
		for j := len(w.levels) - 2; j >= 0; j-- {
			w.levels[j].count += w.levels[j+1].count
		}
	} else if t >= period {
		for j := sp.lo; j < sp.hi; j++ {
			if lv := &w.levels[j]; lv.since <= t-period {
				lv.count--
			}
		}
	}
	*sp = span{lo: active, hi: demand}
	reserve := 0
	for j := active; j < demand; j++ {
		lv := &w.levels[j]
		lv.count++
		if float64(lv.count) >= w.beta {
			reserve++
			*lv = level{since: t + 1}
		}
	}
	return reserve
}
