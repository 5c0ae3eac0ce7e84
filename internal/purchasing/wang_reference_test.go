package purchasing

import (
	"math/rand"
	"reflect"
	"testing"

	"rimarket/internal/pricing"
)

// wangReference is the level-list transcription of Wang et al.'s
// online algorithm that WangOnline's counter windows replace, kept
// verbatim as the differential oracle: every uncovered level keeps the
// timestamps of its on-demand hours, pruned to the last period, and the
// planner tracks its own reservations' expiries instead of reading the
// active count PlanReservations passes. With CallerActive set it
// covers the levels below the count its caller passes instead, as
// WangOnline does, for callers that hold reservations of their own.
type wangReference struct {
	Instance       pricing.InstanceType
	BreakEvenScale float64
	CallerActive   bool

	levels []levelState
	resExp []pendingExpiry
	active int
}

type levelState struct {
	// hours holds the timestamps of on-demand hours inside the current
	// window, oldest first.
	hours []int
}

type pendingExpiry struct {
	hour  int
	count int
}

func (w *wangReference) breakEvenHours() float64 {
	scale := w.BreakEvenScale
	if scale == 0 {
		scale = 1
	}
	it := w.Instance
	return scale * it.Upfront / (it.OnDemandHourly * (1 - it.Alpha()))
}

func (w *wangReference) Reserve(t, demand, active int) int {
	period := w.Instance.PeriodHours
	beta := w.breakEvenHours()

	// Expire our own reservations.
	kept := w.resExp[:0]
	for _, e := range w.resExp {
		if e.hour > t {
			kept = append(kept, e)
		} else {
			w.active -= e.count
		}
	}
	w.resExp = kept

	// Grow level state to cover this hour's demand.
	for len(w.levels) < demand {
		w.levels = append(w.levels, levelState{})
	}

	reserve := 0
	covered := w.active
	if w.CallerActive {
		covered = active
	}
	for j := 0; j < demand; j++ {
		if j < covered {
			continue // served by an active reservation, no on-demand spend
		}
		lv := &w.levels[j]
		lv.hours = append(lv.hours, t)
		// Prune hours that fell out of the window (t-period, t].
		cut := 0
		for cut < len(lv.hours) && lv.hours[cut] <= t-period {
			cut++
		}
		lv.hours = lv.hours[cut:]
		if float64(len(lv.hours)) >= beta {
			reserve++
			covered++
			lv.hours = lv.hours[:0]
		}
	}
	if reserve > 0 {
		w.active += reserve
		w.resExp = append(w.resExp, pendingExpiry{hour: t + period, count: reserve})
	}
	return reserve
}

// TestWangMatchesReference requires the counter-window planner to emit
// the level-list reference's NewRes exactly, over seeded demand with
// idle hours and gaps, on horizons of up to four periods (so windows
// slide, levels reset and reservations lapse) and at three break-even
// scales.
func TestWangMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cases := 0
	for _, scale := range []float64{1, 0.5, 0.3} {
		for i := 0; i < 700; i++ {
			it := pricing.InstanceType{
				Name:           "diff",
				OnDemandHourly: 1,
				Upfront:        float64(2 + rng.Intn(40)),
				ReservedHourly: 0.1 + 0.8*rng.Float64(),
				PeriodHours:    2 + rng.Intn(60),
			}
			demand := make([]int, 1+rng.Intn(4*it.PeriodHours))
			idle := rng.Float64() // share of idle hours
			peak := rng.Intn(13)
			for h := range demand {
				if rng.Float64() >= idle {
					demand[h] = rng.Intn(peak + 1)
				}
			}
			got, err := PlanReservations(demand, it.PeriodHours, &WangOnline{Instance: it, BreakEvenScale: scale})
			if err != nil {
				t.Fatal(err)
			}
			want, err := PlanReservations(demand, it.PeriodHours, &wangReference{Instance: it, BreakEvenScale: scale})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("scale %v case %d (%+v, demand %v):\n got %v\nwant %v", scale, i, it, demand, got, want)
			}
			cases++
		}
	}
	if cases < 2000 {
		t.Fatalf("ran %d cases, want at least 2000", cases)
	}
}

// drive feeds demand to p hour by hour as PlanReservations does, but
// passes active[t] as the active count when active is not nil. It
// returns the plan and, for a WangOnline, the hour it left the lazy
// regime (-1 if it never did).
func drive(p Policy, period int, demand, active []int) (plan []int, left int) {
	plan, left = make([]int, len(demand)), -1
	own := 0
	for t, d := range demand {
		if t >= period {
			own -= plan[t-period]
		}
		a := own
		if active != nil {
			a = active[t]
		}
		plan[t] = p.Reserve(t, d, a)
		own += plan[t]
		if w, ok := p.(*WangOnline); ok && left < 0 && !w.lazy {
			left = t
		}
	}
	return plan, left
}

// cycle returns n hours of demand repeating pattern.
func cycle(n int, pattern ...int) []int {
	out := make([]int, n)
	for h := range out {
		out[h] = pattern[h%len(pattern)]
	}
	return out
}

// TestWangLazyRegime checks the switch from the demand histogram to
// the level walk where random demand seldom goes: each case must leave
// the lazy regime at the hour it names, reserve first at the hour and
// count it names, and emit the level-list reference's plan, on a fresh
// planner and on one reused from every earlier case.
func TestWangLazyRegime(t *testing.T) {
	// beta 20, an exact integer, over a 20-hour period; beta 1 over 8
	// hours; beta 6 over 10.
	it := testInstance()
	unit := pricing.InstanceType{Name: "unit", OnDemandHourly: 1, Upfront: 0.5, ReservedHourly: 0.5, PeriodHours: 8}
	slide := pricing.InstanceType{Name: "slide", OnDemandHourly: 1, Upfront: 3, ReservedHourly: 0.5, PeriodHours: 10}
	outside := make([]int, 30)
	for h := 5; h < 10; h++ {
		outside[h] = 1
	}
	cases := []struct {
		name   string
		it     pricing.InstanceType
		scale  float64
		demand []int
		active []int // nil: the planner's own reservations, as PlanReservations counts them
		leave  int   // hour the planner leaves the lazy regime, -1 for never
		first  int   // hour of the first reservation, -1 for never
		firstN int   // reservations made then
	}{
		{"beta one", unit, 1, append([]int{0, 0}, cycle(20, 2, 0, 1)...), nil, 2, 2, 2},
		{"beta below one", unit, 0.5, append([]int{0, 0, 0}, cycle(20, 1, 3)...), nil, 3, 3, 1},
		{"integer beta", it, 1, append([]int{0, 0, 0}, cycle(40, 1, 3, 2)...), nil, 22, 22, 1},
		{"levels tie", it, 1, cycle(30, 3), nil, 19, 19, 3},
		{"two of three levels tie", it, 1, append(cycle(10, 3), cycle(20, 2)...), nil, 19, 19, 2},
		{"window slid", slide, 1, append(cycle(30, 1, 2, 1, 2, 1, 0, 0, 0, 0, 0), cycle(20, 3, 2, 3)...), nil, 35, 35, 2},
		{"never", it, 1, cycle(500, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4), nil, -1, -1, 0},
		{"caller holds reservations", it, 1, cycle(30, 3), outside, 5, 19, 2},
	}
	var reused WangOnline
	for _, tc := range cases {
		ref := &wangReference{Instance: tc.it, BreakEvenScale: tc.scale, CallerActive: tc.active != nil}
		want, _ := drive(ref, tc.it.PeriodHours, tc.demand, tc.active)
		first, firstN := -1, 0
		for h, n := range want {
			if n > 0 {
				first, firstN = h, n
				break
			}
		}
		if first != tc.first || firstN != tc.firstN {
			t.Fatalf("%s: reference reserves %d first at hour %d, case wants %d at hour %d", tc.name, firstN, first, tc.firstN, tc.first)
		}
		reused.Instance, reused.BreakEvenScale = tc.it, tc.scale
		reused.reset()
		for _, w := range []*WangOnline{{Instance: tc.it, BreakEvenScale: tc.scale}, &reused} {
			got, left := drive(w, tc.it.PeriodHours, tc.demand, tc.active)
			if left != tc.leave {
				t.Errorf("%s: left the lazy regime at hour %d, want %d", tc.name, left, tc.leave)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s:\n got %v\nwant %v", tc.name, got, want)
			}
		}
	}
}

// fuzzPlanners is one planning worker's purchasers, dirty from every
// earlier input of FuzzWangPlan.
var fuzzPlanners Planners

// FuzzWangPlan: on any valid card with a period of 1 to 64 hours, any
// break-even scale in (0, 1] and demand up to four periods long (each
// byte a level from 0 to 12, idle a quarter of the time), a fresh Wang
// planner and one Planners reuses must both plan what the level-list
// reference plans.
func FuzzWangPlan(f *testing.F) {
	f.Add(1.0, 10.0, 0.5, uint8(19), 1.0, []byte("\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04\x04"))
	f.Add(1.0, 0.5, 0.5, uint8(7), 0.5, []byte("\x00\x00\x06\x0f\x04"))
	f.Add(1.0, 3.0, 0.5, uint8(9), 1.0, []byte("\x04\x05\x04\x05\x04\x00\x00\x00\x00\x00\x04\x05\x04\x05\x04\x00\x00\x00\x00\x00\x06\x05\x06\x06\x05\x06\x06\x05"))
	f.Add(0.69, 1325.0, 0.155, uint8(63), 0.5, []byte("\x07\x0f\x00\x0b\x03\x09"))
	f.Fuzz(func(t *testing.T, onDemand, upfront, reserved float64, period uint8, scale float64, raw []byte) {
		it := pricing.InstanceType{Name: "fuzz", OnDemandHourly: onDemand, Upfront: upfront, ReservedHourly: reserved, PeriodHours: 1 + int(period)%64}
		if it.Validate() != nil || !(scale > 0 && scale <= 1) {
			t.Skip()
		}
		if len(raw) > 4*it.PeriodHours {
			raw = raw[:4*it.PeriodHours]
		}
		demand := make([]int, len(raw))
		for h, b := range raw {
			demand[h] = max(0, int(b&15)-3)
		}
		want, err := PlanReservations(demand, it.PeriodHours, &wangReference{Instance: it, BreakEvenScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := PlanReservations(demand, it.PeriodHours, &WangOnline{Instance: it, BreakEvenScale: scale})
		if err != nil {
			t.Fatal(err)
		}
		p, err := fuzzPlanners.For("wang-online", it, 0)
		if err != nil {
			t.Fatal(err)
		}
		w := p.(*WangOnline)
		w.BreakEvenScale = scale
		w.reset()
		reused, err := PlanReservations(demand, it.PeriodHours, w)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fresh, want) || !reflect.DeepEqual(reused, want) {
			t.Fatalf("%+v scale %v demand %v:\n fresh %v\nreused %v\n  want %v", it, scale, demand, fresh, reused, want)
		}
	})
}
