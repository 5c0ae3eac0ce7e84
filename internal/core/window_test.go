package core

import (
	"math"
	"math/rand"
	"testing"

	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

// windowCase builds a closed-form instance from raw bytes: T hours of
// demand (raw repeated, each byte mod 16), position steps from stepRaw
// (each byte pair an age gap and a position in [-1, 15]), and the
// schedule they imply, one bool per hour, with its busy count.
func windowCase(T int, raw, stepRaw []byte) (demand []int, steps []simulate.PositionStep, sched []bool, worked int) {
	demand = make([]int, T)
	if len(raw) > 0 {
		for a := range demand {
			demand[a] = int(raw[a%len(raw)] % 16)
		}
	}
	age := 0
	for i := 0; ; i += 2 {
		pos := -1
		if i+1 < len(stepRaw) {
			pos = int(stepRaw[i+1]%17) - 1
		}
		steps = append(steps, simulate.PositionStep{Age: age, Pos: pos})
		if i+2 >= len(stepRaw) {
			break
		}
		if age += 1 + int(stepRaw[i+2])%(T/4+1); age >= T {
			break
		}
	}
	sched = make([]bool, T)
	k := 0
	for a := range sched {
		for k+1 < len(steps) && steps[k+1].Age <= a {
			k++
		}
		if sched[a] = demand[a] > steps[k].Pos; sched[a] {
			worked++
		}
	}
	return demand, steps, sched, worked
}

// checkWindowCosts requires WindowCosts on the closed form to return
// CompetitiveCosts' results on the schedule bit for bit, and the same
// error text, and to refuse a worked count the window disagrees with.
func checkWindowCosts(t *testing.T, demand []int, steps []simulate.PositionStep, sched []bool, worked int, policy Threshold, mode Billing) {
	t.Helper()
	wantOnline, wantOpt, werr := CompetitiveCosts(sched, policy, mode)
	online, opt, gerr := WindowCosts(demand, steps, worked, policy, mode)
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("T=%d k=%v a=%v %v: error %v, CompetitiveCosts %v", len(sched), policy.Fraction(), policy.Discount(), mode, gerr, werr)
	}
	if werr != nil {
		return
	}
	if math.Float64bits(online) != math.Float64bits(wantOnline) || !sameDecision(opt, wantOpt) {
		t.Fatalf("T=%d k=%v a=%v %v: WindowCosts = %v, %+v; CompetitiveCosts %v, %+v",
			len(sched), policy.Fraction(), policy.Discount(), mode, online, opt, wantOnline, wantOpt)
	}
	for _, bad := range []int{worked - 1, worked + 1} {
		if _, _, err := WindowCosts(demand, steps, bad, policy, mode); err == nil {
			t.Fatalf("T=%d: worked %d accepted, the window has %d busy hours", len(sched), bad, worked)
		}
	}
}

// TestWindowCostsMatchesCompetitiveCosts pins the closed-form entry to
// CompetitiveCosts over seeded random windows: the paper's fractions
// and others, from k*T rounding to 0 up to k*T rounding to T (an
// error), three discounts, both billings and both price cards.
func TestWindowCostsMatchesCompetitiveCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(2018))
	fractions := []float64{Fraction3T4, FractionT2, FractionT4, 0.125, 0.01, 0.99}
	for i := 0; i < 400; i++ {
		it := testInstance()
		if i%2 == 1 {
			it = pricing.D2XLarge()
		}
		T := 1 + rng.Intn(200)
		if i%25 == 0 {
			T = it.PeriodHours
		}
		it.PeriodHours = T
		raw := make([]byte, rng.Intn(40))
		rng.Read(raw)
		stepRaw := make([]byte, rng.Intn(12))
		rng.Read(stepRaw)
		demand, steps, sched, worked := windowCase(T, raw, stepRaw)
		for _, k := range fractions {
			for _, a := range []float64{0.2, 0.8, 1.0} {
				policy, err := NewThreshold(it, a, k)
				if err != nil {
					t.Fatal(err)
				}
				for _, mode := range []Billing{BillWhenUsed, BillWhileActive} {
					checkWindowCosts(t, demand, steps, sched, worked, policy, mode)
				}
			}
		}
	}
}

// TestWindowCostsRefusals: a window shorter than the period fails as
// CompetitiveCosts fails on a schedule that short, and steps that do
// not start at age 0 or do not rise within the period are refused.
func TestWindowCostsRefusals(t *testing.T) {
	it := testInstance()
	policy, err := NewThreshold(it, 0.8, FractionT2)
	if err != nil {
		t.Fatal(err)
	}
	T := it.PeriodHours
	demand := make([]int, T)
	start := []simulate.PositionStep{{Age: 0, Pos: 0}}
	_, _, werr := CompetitiveCosts(make([]bool, T-1), policy, BillWhenUsed)
	_, _, gerr := WindowCosts(demand[:T-1], start, 0, policy, BillWhenUsed)
	if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
		t.Errorf("short window: error %v, CompetitiveCosts %v", gerr, werr)
	}
	for _, steps := range [][]simulate.PositionStep{
		nil,
		{{Age: 1, Pos: 0}},
		{{Age: 0, Pos: 1}, {Age: 0, Pos: 0}},
		{{Age: 0, Pos: 1}, {Age: T, Pos: 0}},
	} {
		if _, _, err := WindowCosts(demand, steps, 0, policy, BillWhenUsed); err == nil {
			t.Errorf("steps %v accepted", steps)
		}
	}
}

// FuzzWindowCosts pins WindowCosts to CompetitiveCosts on the
// materialized schedule bit for bit on arbitrary inputs: demand bytes
// (repeated to fill the period), position steps, period, billing (bit
// 0 picks the mode, bit 1 the d2.xlarge card), a and k. Online cost,
// OfflineDecision and every error must agree, and a worked count off
// by one must be refused.
func FuzzWindowCosts(f *testing.F) {
	f.Add([]byte(nil), []byte(nil), uint16(39), uint8(0), 0.8, 0.75)
	f.Add([]byte{3, 0, 7, 1}, []byte{0, 2, 5, 1, 9, 0}, uint16(39), uint8(1), 0.8, 0.5)
	f.Add([]byte{15}, []byte{0, 0}, uint16(1), uint8(0), 0.5, 0.2)
	f.Add([]byte{1}, []byte{}, uint16(0), uint8(1), 1.0, 0.25)
	f.Add([]byte{5, 9, 2, 12, 0, 4}, []byte{0, 8, 30, 6, 2, 3, 90, 0}, uint16(239), uint8(2), 0.3, 0.75)
	f.Add([]byte{0, 15, 8}, []byte{0, 16, 1, 0}, uint16(96), uint8(3), 0.0, 0.99)
	f.Fuzz(func(t *testing.T, raw, stepRaw []byte, period uint16, billing uint8, a, k float64) {
		it := testInstance()
		if billing&2 != 0 {
			it = pricing.D2XLarge()
		}
		T := 1 + int(period)%2048
		it.PeriodHours = T
		policy, err := NewThreshold(it, a, k)
		if err != nil {
			return
		}
		demand, steps, sched, worked := windowCase(T, raw, stepRaw)
		checkWindowCosts(t, demand, steps, sched, worked, policy, []Billing{BillWhenUsed, BillWhileActive}[billing&1])
	})
}
