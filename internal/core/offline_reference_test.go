package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rimarket/internal/pricing"
)

// optimalSellReference is the original suffix-array OptimalSell, kept
// test-only as the oracle for the candidate scan: it tabulates the busy
// hours in [e, T) for every e and prices every sale age. Both feed the
// same integers x and y into the same float expression, so the
// differential suite requires bit-identical decisions.
func optimalSellReference(schedule []bool, params OfflineParams) (OfflineDecision, error) {
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

	// suffixBusy[e] = busy hours in [e, T).
	suffixBusy := make([]int, T+1)
	for h := T - 1; h >= 0; h-- {
		suffixBusy[h] = suffixBusy[h+1]
		if schedule[h] {
			suffixBusy[h]++
		}
	}
	totalBusy := suffixBusy[0]

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
	for e := minAge; e < T; e++ {
		x := totalBusy - suffixBusy[e] // busy hours before the sale
		y := suffixBusy[e]             // busy hours re-bought on-demand
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

// thresholdCostReference is the four-scan ThresholdCost the one-pass
// CompetitiveCosts replaced, kept test-only with its CostIfSoldAt and
// CostIfKept inlined: it counts the busy hours before the checkpoint,
// then recounts the whole schedule split at the sale age (sold) or in
// total (kept).
func thresholdCostReference(schedule []bool, policy Threshold, billing Billing) (float64, error) {
	params := OfflineParams{
		Instance:        policy.instance,
		SellingDiscount: policy.discount,
		Billing:         billing,
	}
	if err := params.Validate(); err != nil {
		return 0, err
	}
	it := params.Instance
	T := it.PeriodHours
	if len(schedule) != T {
		return 0, fmt.Errorf("core: schedule has %d hours, want the period %d", len(schedule), T)
	}
	ckAge := policy.CheckpointAge(T)
	worked := 0
	for h := 0; h < ckAge && h < len(schedule); h++ {
		if schedule[h] {
			worked++
		}
	}
	if float64(worked) < policy.BreakEven() {
		var x, y int
		for h, busy := range schedule {
			if !busy {
				continue
			}
			if h < ckAge {
				x++
			} else {
				y++
			}
		}
		income := params.SellingDiscount * it.Upfront * float64(T-ckAge) / float64(T)
		switch params.Billing {
		case BillWhenUsed:
			return it.Upfront + it.ReservedHourly*float64(x) + it.OnDemandHourly*float64(y) - income, nil
		default:
			return it.Upfront + it.ReservedHourly*float64(ckAge) + it.OnDemandHourly*float64(y) - income, nil
		}
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
		return it.Upfront + it.ReservedHourly*float64(T), nil
	}
}

// randomSchedule draws one of several schedule shapes: idle, fully
// busy, Bernoulli at a random density, busy prefix, busy suffix, and
// random bursts.
func randomSchedule(rng *rand.Rand, T int) (string, []bool) {
	s := make([]bool, T)
	switch shape := rng.Intn(6); shape {
	case 0:
		return "idle", s
	case 1:
		for h := range s {
			s[h] = true
		}
		return "busy", s
	case 2:
		density := rng.Float64()
		for h := range s {
			s[h] = rng.Float64() < density
		}
		return fmt.Sprintf("bernoulli%.2f", density), s
	case 3:
		n := rng.Intn(T + 1)
		for h := 0; h < n; h++ {
			s[h] = true
		}
		return fmt.Sprintf("prefix%d", n), s
	case 4:
		n := rng.Intn(T + 1)
		for h := T - n; h < T; h++ {
			s[h] = true
		}
		return fmt.Sprintf("suffix%d", n), s
	default:
		for b := rng.Intn(8); b >= 0; b-- {
			start, n := rng.Intn(T), 1+rng.Intn(T/4+1)
			for h := start; h < T && h < start+n; h++ {
				s[h] = true
			}
		}
		return "bursts", s
	}
}

// sameDecision reports whether two decisions agree field for field,
// floats compared by bit pattern.
func sameDecision(a, b OfflineDecision) bool {
	return a.Sell == b.Sell && a.SellAge == b.SellAge &&
		math.Float64bits(a.Cost) == math.Float64bits(b.Cost) &&
		math.Float64bits(a.KeepCost) == math.Float64bits(b.KeepCost)
}

// TestOptimalSellMatchesReference pins OptimalSell to the suffix-array
// reference: bit-identical decisions over seeded random schedules, both
// billing modes, and sale-age floors across the whole period.
func TestOptimalSellMatchesReference(t *testing.T) {
	cards := []pricing.InstanceType{testInstance(), cardWithPeriod(7), cardWithPeriod(240), pricing.D2XLarge()}
	rng := rand.New(rand.NewSource(17))
	for _, it := range cards {
		T := it.PeriodHours
		schedules := 40
		if T > 1000 {
			schedules = 8
		}
		for n := 0; n < schedules; n++ {
			shape, sched := randomSchedule(rng, T)
			a := rng.Float64()
			switch n % 5 {
			case 0:
				a = 0
			case 1:
				a = 1
			}
			for _, billing := range []Billing{BillWhenUsed, BillWhileActive} {
				for _, minAge := range []int{0, 1, T / 4, T / 2, 3 * T / 4, T - 1} {
					params := OfflineParams{Instance: it, SellingDiscount: a, Billing: billing, MinSellAge: minAge}
					want, werr := optimalSellReference(sched, params)
					got, gerr := OptimalSell(sched, params)
					if (werr == nil) != (gerr == nil) {
						t.Fatalf("T=%d %s a=%v %v min=%d: error %v, reference %v", T, shape, a, billing, minAge, gerr, werr)
					}
					if !sameDecision(got, want) {
						t.Fatalf("T=%d %s a=%v %v min=%d: %+v, reference %+v", T, shape, a, billing, minAge, got, want)
					}
				}
			}
		}
	}
}

// cardWithPeriod is testInstance's prices over a period of T hours.
func cardWithPeriod(T int) pricing.InstanceType {
	it := testInstance()
	it.PeriodHours = T
	return it
}

// FuzzOptimalSell pins the candidate scan to the references bit for bit
// on arbitrary inputs: schedule bits (raw, repeated to fill the
// period), period, MinSellAge, billing (bit 0 picks the mode, bit 1 the
// d2.xlarge card instead of testInstance's prices), a and k. OptimalSell
// must equal optimalSellReference; ThresholdCost, and CompetitiveCosts'
// online cost, must equal thresholdCostReference; CompetitiveCosts' OPT
// must equal the reference restricted to the checkpoint age.
func FuzzOptimalSell(f *testing.F) {
	busy := []byte{0xff}
	f.Add([]byte(nil), uint16(39), uint16(0), uint8(0), 0.8, 0.75)           // all idle, MinSellAge 0
	f.Add(busy, uint16(39), uint16(0), uint8(1), 0.8, 0.5)                   // all busy
	f.Add([]byte{0x0f, 0xf0}, uint16(1), uint16(0), uint8(0), 0.5, 0.2)      // ck = 0
	f.Add([]byte{0x01}, uint16(0), uint16(0), uint8(1), 1.0, 0.25)           // T = 1: ck = 0, no sale age
	f.Add([]byte{0xa5, 0x3c}, uint16(239), uint16(180), uint8(2), 0.3, 0.75) // d2.xlarge prices
	f.Add([]byte{0x00, 0xff, 0x81}, uint16(96), uint16(96), uint8(3), 0.0, 0.9)
	f.Fuzz(func(t *testing.T, raw []byte, period, minAge uint16, billing uint8, a, k float64) {
		it := testInstance()
		if billing&2 != 0 {
			it = pricing.D2XLarge()
		}
		T := 1 + int(period)%2048 // period 0 is a one-hour period
		it.PeriodHours = T
		sched := make([]bool, T)
		if len(raw) > 0 {
			for h := range sched {
				sched[h] = raw[h/8%len(raw)]>>(h%8)&1 == 1
			}
		}
		mode := []Billing{BillWhenUsed, BillWhileActive}[billing&1]
		params := OfflineParams{Instance: it, SellingDiscount: a, Billing: mode, MinSellAge: int(minAge) % T}
		want, werr := optimalSellReference(sched, params)
		got, gerr := OptimalSell(sched, params)
		if (werr == nil) != (gerr == nil) || !sameDecision(got, want) {
			t.Fatalf("OptimalSell(T=%d %+v) = %+v, %v; reference %+v, %v", T, params, got, gerr, want, werr)
		}

		policy, err := NewThreshold(it, a, k)
		if err != nil {
			return
		}
		wantOnline, werr := thresholdCostReference(sched, policy, mode)
		gotOnline, gerr := ThresholdCost(sched, policy, mode)
		if (werr == nil) != (gerr == nil) || math.Float64bits(gotOnline) != math.Float64bits(wantOnline) {
			t.Fatalf("ThresholdCost(T=%d k=%v a=%v %v) = %v, %v; reference %v, %v", T, k, a, mode, gotOnline, gerr, wantOnline, werr)
		}
		ck := policy.CheckpointAge(T)
		params.MinSellAge = ck
		wantOpt, werr := optimalSellReference(sched, params)
		online, opt, gerr := CompetitiveCosts(sched, policy, mode)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("CompetitiveCosts(T=%d k=%v a=%v %v): error %v, reference %v", T, k, a, mode, gerr, werr)
		}
		if gerr == nil && (!sameDecision(opt, wantOpt) || math.Float64bits(online) != math.Float64bits(wantOnline)) {
			t.Fatalf("CompetitiveCosts(T=%d k=%v a=%v %v) = %v, %+v; reference %v, %+v", T, k, a, mode, online, opt, wantOnline, wantOpt)
		}
	})
}
