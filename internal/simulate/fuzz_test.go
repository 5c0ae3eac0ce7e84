package simulate

import (
	"reflect"
	"testing"

	"rimarket/internal/pricing"
)

// FuzzEngineRun drives the optimized engine with arbitrary byte-derived
// demand/reservation series, price cards and policy shapes, and checks
// that it (a) never panics, (b) conserves the Eq. (1) accounting
// identities, (c) stays field-for-field identical to the reference
// engine, (d) agrees bit for bit with Scratch.Totals on one Scratch
// reused, dirty, across every input the fuzzer feeds this process, and
// (e) agrees with a Keep-Reserved trunk resumed at the fork hour.
// Seed corpus lives in testdata/fuzz/FuzzEngineRun.
func FuzzEngineRun(f *testing.F) {
	f.Add([]byte{5, 3, 0, 7, 1}, []byte{1, 0, 2}, byte(40), byte(80), byte(12), byte(1), byte(10))
	f.Add([]byte{}, []byte{}, byte(1), byte(0), byte(0), byte(0), byte(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9}, []byte{2, 2, 2, 2}, byte(3), byte(100), byte(99), byte(2), byte(2))
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0}, []byte{1}, byte(8), byte(50), byte(0), byte(3), byte(200))
	f.Add([]byte{4, 4, 4, 4, 4, 4}, []byte{0, 3, 0, 3}, byte(5), byte(75), byte(30), byte(10), byte(4))

	var scratch Scratch // inputs run one at a time per process
	forkPoint := make([]ResumePoint, 1)
	f.Fuzz(func(t *testing.T, demandB, resB []byte, periodB, discountB, feeB, shapeB, ageB byte) {
		n := len(demandB)
		if n > 300 {
			n = 300
		}
		demand := make([]int, n)
		newRes := make([]int, n)
		for i := 0; i < n; i++ {
			demand[i] = int(demandB[i] % 10)
			if i < len(resB) {
				newRes[i] = int(resB[i] % 3)
			}
		}
		period := 1 + int(periodB%96)
		cfg := Config{
			Instance: pricing.InstanceType{
				Name:           "fuzz.card",
				OnDemandHourly: 1.3,
				Upfront:        77,
				ReservedHourly: 0.21,
				PeriodHours:    period,
			},
			SellingDiscount: float64(discountB%101) / 100,
			MarketFee:       float64(feeB%100) / 100,
			RecordSchedules: shapeB&8 != 0,
		}
		age := int(ageB)
		var policy SellingPolicy
		switch shapeB % 4 {
		case 0:
			policy = KeepReserved{}
		case 1:
			policy = diffFixed{age: age%(period+2) - 1, threshold: age % (period + 1)}
		case 2:
			policy = diffMulti{
				ages:      []int{age%period - 1, age % period, age % period, (2 * age) % (period + 3)},
				threshold: age % (period + 1),
			}
		default:
			policy = diffPerInstance{seed: uint64(ageB)*0x9e3779b9 + uint64(periodB), threshold: age % (period + 1)}
		}

		res, err := Run(demand, newRes, cfg, policy)
		if err != nil {
			t.Fatalf("Run rejected valid fuzz input: %v", err)
		}

		// Eq. (1) component identities: every component non-negative,
		// and income can only come from sales.
		c := res.Cost
		if c.OnDemand < 0 || c.Upfront < 0 || c.ReservedHourly < 0 || c.SaleIncome < 0 {
			t.Fatalf("negative cost component: %+v", c)
		}
		if res.SoldCount() == 0 && c.SaleIncome != 0 {
			t.Fatalf("SaleIncome %v without sales", c.SaleIncome)
		}

		// Per-hour identities: coverage, input echo, and ActiveRes equal
		// to the instances still live per the lifecycle records.
		served := 0
		for h, rec := range res.Hours {
			if rec.OnDemand < 0 || rec.ActiveRes < 0 || rec.Sold < 0 {
				t.Fatalf("hour %d: negative field %+v", h, rec)
			}
			if rec.Demand != demand[h] || rec.NewlyRes != newRes[h] {
				t.Fatalf("hour %d: input echo mismatch %+v", h, rec)
			}
			if rec.OnDemand+rec.ActiveRes < rec.Demand {
				t.Fatalf("hour %d: demand not covered %+v", h, rec)
			}
			live := 0
			for _, in := range res.Instances {
				if in.Start <= h && h < in.Start+period && (in.SoldAt < 0 || h < in.SoldAt) {
					live++
				}
			}
			if rec.ActiveRes != live {
				t.Fatalf("hour %d: ActiveRes %d, %d live instances per records", h, rec.ActiveRes, live)
			}
			served += rec.Demand - rec.OnDemand
		}

		// Work conservation: reserved-served demand equals the summed
		// per-instance working hours.
		worked := 0
		for _, in := range res.Instances {
			if in.Worked < 0 || (in.SoldAt >= 0 && in.SoldAt < in.Start) {
				t.Fatalf("corrupt instance record %+v", in)
			}
			worked += in.Worked
		}
		if worked != served {
			t.Fatalf("worked hours %d != reserved-served demand %d", worked, served)
		}

		// Differential oracle: the optimized engine must match the
		// reference engine exactly.
		want, err := runReference(demand, newRes, cfg, policy)
		if err != nil {
			t.Fatalf("reference rejected input: %v", err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("optimized result diverges from reference:\n got %+v\nwant %+v", res.Cost, want.Cost)
		}

		// Totals oracle: the lean output of the same kernel on a reused
		// scratch carries Run's exact totals.
		tot, err := scratch.Totals(demand, newRes, cfg, policy)
		if err != nil {
			t.Fatalf("Totals rejected input Run accepted: %v", err)
		}
		assertTotalsIdentical(t, tot, totalsFromRun(res))

		// Resume oracle: a Keep-Reserved trunk captured at the fork hour
		// and resumed under the policy carries the same totals.
		fork := ForkHour(ForkAge(policy, period), firstReservation(newRes), n)
		if _, err := scratch.Trunk(demand, newRes, cfg, []int{fork}, forkPoint); err != nil {
			t.Fatalf("Trunk rejected input Run accepted: %v", err)
		}
		resumed, err := scratch.Resume(&forkPoint[0], cfg, policy)
		if err != nil {
			t.Fatalf("resume at fork hour %d: %v", fork, err)
		}
		assertTotalsIdentical(t, resumed, tot)
	})
}
