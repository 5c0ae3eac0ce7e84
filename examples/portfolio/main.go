// Portfolio: managing reservations across several instance types.
//
// An enterprise runs three services on different instance types with
// different demand shapes and reservation habits — a steady web tier
// bought carefully with the ICAC'13 online purchaser, a batch analytics
// pipeline reserved to its burst peak, and a dev/test fleet reserved to
// peak and then scaled back mid-year. The portfolio layer plans
// reservations, applies A_{3T/4} selling decisions per service, lists
// every sold reservation on the marketplace simulator, and reports the
// portfolio-level savings including Amazon's 12% fee.
//
// Run: go run ./examples/portfolio
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rimarket"
	"rimarket/internal/workload"
)

func main() {
	const (
		a     = 0.8
		hours = 1460 // 60-day scaled period, as in TestScaleConfig
		seed  = 11
	)
	scaled := rimarket.TestScaleConfig().Instance
	catalog := rimarket.StandardCatalog()
	rng := rand.New(rand.NewSource(seed))

	// scaleCard shrinks a catalog card's period the way TestScaleConfig
	// scales d2.xlarge, preserving alpha and theta.
	scaleCard := func(name string) rimarket.InstanceType {
		full, err := catalog.Lookup(name)
		if err != nil {
			log.Fatal(err)
		}
		it := full
		it.PeriodHours = scaled.PeriodHours
		it.Upfront = full.Upfront * float64(scaled.PeriodHours) / float64(full.PeriodHours)
		return it
	}

	web := scaleCard("m4.xlarge")
	services := []rimarket.PortfolioService{
		{
			// Disciplined team: the online purchaser reserves only
			// well-utilized levels, so nothing needs selling.
			Name:      "web-frontend",
			Instance:  web,
			Demand:    workload.StableGenerator{Base: 10, Jitter: 1.5, DiurnalAmp: 2}.Generate("web", hours, rng).Demand,
			Purchaser: rimarket.NewWangOnline(web),
		},
		{
			// Reserved to the burst peak: most reservations idle and the
			// selling algorithm sheds them. Nil purchaser = AllReserved.
			Name:     "batch-analytics",
			Instance: scaleCard("d2.xlarge"),
			Demand: workload.BurstyGenerator{BurstHeight: 18, BurstRate: 0.01, MeanBurstLen: 12}.
				Generate("batch", hours, rng).Demand,
		},
		{
			// Reserved to peak, then the project was scaled back.
			Name:     "dev-test",
			Instance: scaleCard("c4.2xlarge"),
			Demand: workload.RampDown{
				Inner:       workload.OnOffGenerator{OnLevel: 6, OnHours: 10, OffHours: 14, Jitter: 0.5},
				EndFraction: 0.4,
				Tail:        0.15,
			}.Generate("dev", hours, rng).Demand,
		},
	}

	res, err := rimarket.EvaluatePortfolio(services, rimarket.PortfolioConfig{
		SellingDiscount: a,
		MarketFee:       rimarket.AmazonFee,
		Policy: func(it rimarket.InstanceType) (rimarket.SellingPolicy, error) {
			return rimarket.NewA3T4(it, a)
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-16s %-12s %10s %10s %10s %6s\n",
		"service", "instance", "keep $", "A_{3T/4} $", "saved $", "sold")
	for _, svc := range res.Services {
		fmt.Printf("%-16s %-12s %10.2f %10.2f %10.2f %6d\n",
			svc.Name, svc.Instance.Name, svc.KeepCost, svc.PolicyCost,
			svc.Savings(), len(svc.SoldInstances))
	}

	// Recycle every sold reservation through the marketplace.
	market, err := rimarket.NewMarket(rimarket.AmazonFee)
	if err != nil {
		log.Fatal(err)
	}
	listed, err := rimarket.ListPortfolioOnMarket(market, res, a)
	if err != nil {
		log.Fatal(err)
	}
	var bought int
	for _, svc := range res.Services {
		sales, err := market.Buy("secondary-buyer", svc.Instance.Name, len(svc.SoldInstances))
		if err == nil {
			bought += len(sales)
		}
	}

	fmt.Printf("\nportfolio: keep $%.2f vs A_{3T/4} $%.2f -> %.1f%% saved\n",
		res.KeepTotal(), res.PolicyTotal(), res.SavingsFraction()*100)
	_, _, fees := market.Totals()
	fmt.Printf("marketplace: %d listings, %d resold, $%.2f in fees\n",
		listed, bought, fees)
}
