package purchasing

import (
	"reflect"
	"testing"
	"testing/quick"

	"rimarket/internal/pricing"
)

// testInstance: p = 1.0, R = 10, alpha = 0.5, T = 20.
// Break-even for WangOnline: 10 / (1 * 0.5) = 20 hours.
func testInstance() pricing.InstanceType {
	return pricing.InstanceType{
		Name:           "test.small",
		OnDemandHourly: 1.0,
		Upfront:        10,
		ReservedHourly: 0.5,
		PeriodHours:    20,
	}
}

func TestPlanReservationsValidation(t *testing.T) {
	if _, err := PlanReservations([]int{1}, 0, AllReserved{}); err == nil {
		t.Error("zero period accepted")
	}
	if _, err := PlanReservations([]int{1}, 10, nil); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := PlanReservations([]int{-1}, 10, AllReserved{}); err == nil {
		t.Error("negative demand accepted")
	}
	if _, err := PlanReservations([]int{1}, 10, NewWangOnline(pricing.InstanceType{})); err == nil {
		t.Error("wang planner on an invalid card accepted")
	}
}

type negativePolicy struct{}

func (negativePolicy) Reserve(_, _, _ int) int { return -1 }

func TestPlanReservationsRejectsNegativePolicy(t *testing.T) {
	if _, err := PlanReservations([]int{1}, 10, negativePolicy{}); err == nil {
		t.Error("negative policy output accepted")
	}
}

func TestAllReservedCoversDemand(t *testing.T) {
	demand := []int{2, 3, 1, 5, 0, 5}
	newRes, err := PlanReservations(demand, 100, AllReserved{})
	if err != nil {
		t.Fatal(err)
	}
	// Active never expires within this horizon; reservations only grow
	// to the running max of demand.
	want := []int{2, 1, 0, 2, 0, 0}
	if !reflect.DeepEqual(newRes, want) {
		t.Errorf("newRes = %v, want %v", newRes, want)
	}
}

func TestAllReservedReplacesExpired(t *testing.T) {
	// Period 3: the reservation made at hour 0 expires at hour 3 and
	// must be replaced while demand persists.
	demand := []int{1, 1, 1, 1, 1, 1}
	newRes, err := PlanReservations(demand, 3, AllReserved{})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 0, 0, 1, 0, 0}
	if !reflect.DeepEqual(newRes, want) {
		t.Errorf("newRes = %v, want %v", newRes, want)
	}
}

func TestRandomPolicyBounds(t *testing.T) {
	p := NewRandom(1)
	demand := make([]int, 200)
	for i := range demand {
		demand[i] = 7
	}
	newRes, err := PlanReservations(demand, 50, p)
	if err != nil {
		t.Fatal(err)
	}
	// Active reservations never exceed the max demand (target <= demand).
	active := 0
	expire := make([]int, len(demand)+51)
	someReserved := false
	for t2, n := range newRes {
		active -= expire[t2]
		active += n
		expire[t2+50] += n
		if active > 7 {
			t.Fatalf("hour %d: active %d exceeds demand bound 7", t2, active)
		}
		if n > 0 {
			someReserved = true
		}
	}
	if !someReserved {
		t.Error("random policy never reserved over 200 hours of demand 7")
	}
}

func TestRandomPolicyDeterministicPerSeed(t *testing.T) {
	demand := []int{5, 5, 5, 5, 5, 5, 5, 5}
	a, err := PlanReservations(demand, 10, NewRandom(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanReservations(demand, 10, NewRandom(42))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different plans")
	}
}

func TestRandomPolicyZeroDemand(t *testing.T) {
	p := NewRandom(3)
	if got := p.Reserve(0, 0, 0); got != 0 {
		t.Errorf("Reserve(demand=0) = %d, want 0", got)
	}
}

func TestWangOnlineReservesAtBreakEven(t *testing.T) {
	// Break-even = 20 on-demand hours; with constant demand 1 the policy
	// must reserve exactly at the 20th uncovered hour (t = 19) and then
	// stay covered for a full period.
	it := testInstance()
	demand := make([]int, 45)
	for i := range demand {
		demand[i] = 1
	}
	newRes, err := PlanReservations(demand, it.PeriodHours, NewWangOnline(it))
	if err != nil {
		t.Fatal(err)
	}
	firstRes := -1
	total := 0
	for t2, n := range newRes {
		total += n
		if n > 0 && firstRes == -1 {
			firstRes = t2
		}
	}
	if firstRes != 19 {
		t.Errorf("first reservation at hour %d, want 19 (20th on-demand hour)", firstRes)
	}
	// Covered during [19, 39); accumulation restarts at 39, so no second
	// reservation before hour 39+19 > horizon.
	if total != 1 {
		t.Errorf("total reservations = %d, want 1", total)
	}
}

func TestWangOnlineSparseDemandNeverReserves(t *testing.T) {
	// Demand one hour out of every 25 within a 20-hour window: a window
	// never accumulates 20 on-demand hours, so the policy never reserves.
	it := testInstance()
	demand := make([]int, 500)
	for i := 0; i < len(demand); i += 25 {
		demand[i] = 1
	}
	newRes, err := PlanReservations(demand, it.PeriodHours, NewWangOnline(it))
	if err != nil {
		t.Fatal(err)
	}
	for t2, n := range newRes {
		if n != 0 {
			t.Fatalf("hour %d: reserved %d, want never", t2, n)
		}
	}
}

func TestWangVariantReservesEarlier(t *testing.T) {
	it := testInstance()
	demand := make([]int, 45)
	for i := range demand {
		demand[i] = 1
	}
	variant, err := PlanReservations(demand, it.PeriodHours, NewWangVariant(it))
	if err != nil {
		t.Fatal(err)
	}
	firstRes := -1
	for t2, n := range variant {
		if n > 0 {
			firstRes = t2
			break
		}
	}
	// Half break-even = 10 hours -> first reservation at hour 9.
	if firstRes != 9 {
		t.Errorf("variant first reservation at hour %d, want 9", firstRes)
	}
}

func TestWangOnlineMultiLevel(t *testing.T) {
	// Demand 3 constantly: three levels accumulate in lockstep and all
	// reserve at hour 19.
	it := testInstance()
	demand := make([]int, 25)
	for i := range demand {
		demand[i] = 3
	}
	newRes, err := PlanReservations(demand, it.PeriodHours, NewWangOnline(it))
	if err != nil {
		t.Fatal(err)
	}
	if newRes[19] != 3 {
		t.Errorf("newRes[19] = %d, want 3", newRes[19])
	}
	total := 0
	for _, n := range newRes {
		total += n
	}
	if total != 3 {
		t.Errorf("total = %d, want 3", total)
	}
}

func TestWangOnlineReservationExpiresAndReaccumulates(t *testing.T) {
	// Horizon 80, period 20, constant demand: reserve at 19 (covers
	// 19..38), uncovered again 39.., accumulate 20 hours -> reserve at 58
	// (covers 58..77), uncovered at 78.
	it := testInstance()
	demand := make([]int, 80)
	for i := range demand {
		demand[i] = 1
	}
	newRes, err := PlanReservations(demand, it.PeriodHours, NewWangOnline(it))
	if err != nil {
		t.Fatal(err)
	}
	var hours []int
	for t2, n := range newRes {
		for i := 0; i < n; i++ {
			hours = append(hours, t2)
		}
	}
	want := []int{19, 58}
	if !reflect.DeepEqual(hours, want) {
		t.Errorf("reservation hours = %v, want %v", hours, want)
	}
}

func TestPropertyPlansNeverOverReserveAllReserved(t *testing.T) {
	f := func(raw []uint8, rawPeriod uint8) bool {
		period := int(rawPeriod)%30 + 2
		demand := make([]int, len(raw))
		maxD := 0
		for i, b := range raw {
			demand[i] = int(b % 9)
			if demand[i] > maxD {
				maxD = demand[i]
			}
		}
		newRes, err := PlanReservations(demand, period, AllReserved{})
		if err != nil {
			return false
		}
		// Active count tracks demand exactly from below: active >= demand
		// after each purchase, and active never exceeds running max demand.
		active := 0
		expire := make([]int, len(demand)+period+1)
		for t2, n := range newRes {
			active -= expire[t2]
			active += n
			expire[t2+period] += n
			if active < demand[t2] {
				return false
			}
			if active > maxD {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyWangNeverReservesWithoutDemand(t *testing.T) {
	it := testInstance()
	f := func(raw []uint8) bool {
		demand := make([]int, len(raw))
		for i, b := range raw {
			demand[i] = int(b % 4)
		}
		newRes, err := PlanReservations(demand, it.PeriodHours, NewWangOnline(it))
		if err != nil {
			return false
		}
		for t2, n := range newRes {
			if n > 0 && demand[t2] == 0 {
				return false // reservations only happen on demand hours
			}
			if n > demand[t2] {
				return false // at most one reservation per uncovered level
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
