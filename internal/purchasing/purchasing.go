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

// PlanReservations replays demand through the policy and returns the
// per-hour new-reservation series n_t. Reservations are active for
// periodHours hours from the hour they are made; no selling occurs at
// this stage, matching the paper's dataset-preparation step.
func PlanReservations(demand []int, periodHours int, p Policy) ([]int, error) {
	if periodHours <= 0 {
		return nil, fmt.Errorf("purchasing: period %d must be positive", periodHours)
	}
	if p == nil {
		return nil, fmt.Errorf("purchasing: nil policy")
	}
	newRes := make([]int, len(demand))
	active := 0
	for t, d := range demand {
		if d < 0 {
			return nil, fmt.Errorf("purchasing: negative demand %d at hour %d", d, t)
		}
		if t >= periodHours { // reservations made at t-periodHours lapse
			active -= newRes[t-periodHours]
		}
		n := p.Reserve(t, d, active)
		if n < 0 {
			return nil, fmt.Errorf("purchasing: policy returned negative count %d at hour %d", n, t)
		}
		newRes[t] = n
		active += n
	}
	return newRes, nil
}

// Behaviors names the paper's four reservation-behavior imitators
// (Section VI.A) in presentation order.
var Behaviors = []string{"all-reserved", "random", "wang-online", "wang-variant"}

// ForBehavior returns the purchaser a behavior name selects for the
// instance card; seed seeds the random behavior.
func ForBehavior(name string, it pricing.InstanceType, seed int64) (Policy, error) {
	switch name {
	case "all-reserved":
		return AllReserved{}, nil
	case "random":
		return NewRandom(seed), nil
	case "wang-online":
		return NewWangOnline(it), nil
	case "wang-variant":
		return NewWangVariant(it), nil
	default:
		return nil, fmt.Errorf("purchasing: unknown behavior %q", name)
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
	return &Random{rng: rand.New(rand.NewSource(seed))}
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
// PeriodHours. A WangOnline plans one demand series, on a card that
// passes InstanceType.Validate.
type WangOnline struct {
	// Instance supplies R, p, alpha and the window length PeriodHours.
	Instance pricing.InstanceType
	// BreakEvenScale multiplies the break-even point; 1 is the original
	// algorithm, values in (0, 1) reserve more eagerly. Zero means 1.
	BreakEvenScale float64

	beta   float64
	spans  []span  // spans[t%PeriodHours]: the levels hour t charged
	levels []level // indexed by demand level
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

// Reserve implements Policy.
func (w *WangOnline) Reserve(t, demand, active int) int {
	if w.spans == nil {
		w.beta = w.breakEvenHours()
		w.spans = make([]span, w.Instance.PeriodHours)
	}
	// Hour t-period leaves the window; its slot, empty during the first
	// period, becomes hour t's.
	sp := &w.spans[t%len(w.spans)]
	for j := sp.lo; j < sp.hi; j++ {
		if lv := &w.levels[j]; lv.since <= t-len(w.spans) {
			lv.count--
		}
	}
	for len(w.levels) < demand {
		w.levels = append(w.levels, level{})
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
