package rimarket_test

import (
	"fmt"

	"rimarket"
)

// ExampleThreshold_ShouldSell shows the paper's headline decision: at
// the 3T/4 checkpoint a d2.xlarge that served little demand is sold.
func ExampleThreshold_ShouldSell() {
	it := rimarket.D2XLarge()
	policy, err := rimarket.NewA3T4(it, 0.8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("break-even: %.0f working hours\n", policy.BreakEven())
	fmt.Println("idle instance  ->", decision(policy.ShouldSell(rimarket.Checkpoint{Worked: 100})))
	fmt.Println("busy instance  ->", decision(policy.ShouldSell(rimarket.Checkpoint{Worked: 5000})))
	// Output:
	// break-even: 1744 working hours
	// idle instance  -> sell
	// busy instance  -> keep
}

func decision(sell bool) string {
	if sell {
		return "sell"
	}
	return "keep"
}

// ExampleRun replays a small demand trace against one reservation.
func ExampleRun() {
	it := rimarket.InstanceType{
		Name:           "demo.large",
		OnDemandHourly: 1.0,
		Upfront:        20,
		ReservedHourly: 0.25,
		PeriodHours:    40,
	}
	// Busy for 5 hours, then the project ends.
	demand := make([]int, 40)
	for h := 0; h < 5; h++ {
		demand[h] = 1
	}
	plan := make([]int, 40)
	plan[0] = 1

	policy, err := rimarket.NewAT2(it, 0.8) // decide at T/2
	if err != nil {
		panic(err)
	}
	res, err := rimarket.Run(demand, plan, rimarket.SimConfig{
		Instance:        it,
		SellingDiscount: 0.8,
	}, policy)
	if err != nil {
		panic(err)
	}
	fmt.Printf("sold %d instance(s), total cost $%.2f\n", res.SoldCount(), res.Cost.Total())
	// Output:
	// sold 1 instance(s), total cost $17.00
}

// ExampleOptimalSell computes the clairvoyant benchmark for a
// front-loaded usage schedule.
func ExampleOptimalSell() {
	it := rimarket.InstanceType{
		Name:           "demo.large",
		OnDemandHourly: 1.0,
		Upfront:        20,
		ReservedHourly: 0.25,
		PeriodHours:    40,
	}
	schedule := make([]bool, 40)
	for h := 0; h < 10; h++ {
		schedule[h] = true // busy for the first quarter only
	}
	dec, err := rimarket.OptimalSell(schedule, rimarket.OfflineParams{
		Instance:        it,
		SellingDiscount: 0.8,
		Billing:         rimarket.BillWhenUsed,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("sell at age %d for $%.2f (keeping costs $%.2f)\n", dec.SellAge, dec.Cost, dec.KeepCost)
	// Output:
	// sell at age 10 for $10.50 (keeping costs $22.50)
}

// ExampleRatioA3T4 reproduces the abstract's competitive ratio for the
// d2.xlarge discount alpha = 0.25 and selling discount a = 0.8.
func ExampleRatioA3T4() {
	bound, err := rimarket.RatioA3T4(0.25, 0.8)
	if err != nil {
		panic(err)
	}
	fmt.Printf("A_{3T/4} is %.2f-competitive (2 - alpha - a/4)\n", bound.Ratio)
	// Output:
	// A_{3T/4} is 1.55-competitive (2 - alpha - a/4)
}

// ExampleMarket walks the paper's Section III.B t2.nano sale.
func ExampleMarket() {
	cat := rimarket.StandardCatalog()
	t2nano, err := cat.Lookup("t2.nano")
	if err != nil {
		panic(err)
	}
	m, err := rimarket.NewMarket(rimarket.AmazonFee)
	if err != nil {
		panic(err)
	}
	// Sell the remaining half of the cycle at 20% off the $9 cap.
	if _, err := m.ListDeclining("seller", t2nano, t2nano.PeriodHours/2, 0.8); err != nil {
		panic(err)
	}
	sales, err := m.Buy("buyer", "t2.nano", 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("buyer pays $%.2f, seller receives $%.3f\n",
		sales[0].PricePaid, sales[0].SellerProceeds)
	// Output:
	// buyer pays $7.20, seller receives $6.336
}

// ExamplePlanReservations shows the ICAC'13 online purchaser reserving
// once demand has paid a reservation's worth of on-demand fees.
func ExamplePlanReservations() {
	it := rimarket.InstanceType{
		Name:           "demo.large",
		OnDemandHourly: 1.0,
		Upfront:        10,
		ReservedHourly: 0.5,
		PeriodHours:    20,
	}
	demand := make([]int, 30)
	for h := range demand {
		demand[h] = 1
	}
	plan, err := rimarket.PlanReservations(demand, it.PeriodHours, rimarket.NewWangOnline(it))
	if err != nil {
		panic(err)
	}
	for hour, n := range plan {
		if n > 0 {
			fmt.Printf("reserve %d at hour %d (break-even reached)\n", n, hour)
		}
	}
	// Output:
	// reserve 1 at hour 19 (break-even reached)
}

// ExampleNewRandomized runs the paper's future-work direction: a
// randomized checkpoint drawn per instance.
func ExampleNewRandomized() {
	it := rimarket.TestScaleConfig().Instance
	policy, err := rimarket.NewRandomized(it, 0.8, rimarket.ExponentialFractions{}, 42)
	if err != nil {
		panic(err)
	}
	// Two idle instances reserved at different hours get different,
	// deterministic checkpoints.
	fmt.Println(policy.InstanceCheckpointAge(0, 1, it.PeriodHours) !=
		policy.InstanceCheckpointAge(100, 1, it.PeriodHours))
	// Output:
	// true
}
