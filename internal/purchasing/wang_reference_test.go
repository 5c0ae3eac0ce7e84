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
// active count PlanReservations passes.
type wangReference struct {
	Instance       pricing.InstanceType
	BreakEvenScale float64

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

func (w *wangReference) Reserve(t, demand, _ int) int {
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
