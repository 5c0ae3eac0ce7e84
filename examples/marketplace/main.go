// Marketplace walkthrough: the paper's Section III.B worked example.
//
// A user reserved a t2.nano for a year ($18 upfront) and wants to sell
// the remaining half of the cycle. The prorated cap is $9; listing at
// 20% off prices it at $7.20, and after Amazon's 12% fee the seller
// receives $6.336. The example then shows the lowest-upfront-first
// selling sequence with competing sellers.
//
// Run: go run ./examples/marketplace
package main

import (
	"fmt"
	"log"

	"rimarket"
)

func main() {
	cat := rimarket.StandardCatalog()
	t2nano, err := cat.Lookup("t2.nano")
	if err != nil {
		log.Fatal(err)
	}

	market, err := rimarket.NewMarket(rimarket.AmazonFee)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's example: half the reservation cycle remains.
	remaining := t2nano.PeriodHours / 2
	fmt.Printf("t2.nano: upfront $%.0f for %d h; %d h remain -> prorated cap $%.2f\n",
		t2nano.Upfront, t2nano.PeriodHours, remaining,
		t2nano.Upfront*float64(remaining)/float64(t2nano.PeriodHours))

	id, err := market.ListDeclining("alice", t2nano, remaining, 0.8) // 20% off the cap
	if err != nil {
		log.Fatal(err)
	}
	listing := market.OpenBook("t2.nano")[0]
	fmt.Printf("alice lists #%d at $%.2f (80%% of the cap)\n", id, listing.EffectiveAsk)

	// Competing sellers undercut and overprice.
	if _, err := market.ListDeclining("bob", t2nano, remaining, 0.6); err != nil {
		log.Fatal(err)
	}
	if _, err := market.ListDeclining("carol", t2nano, remaining, 1.0); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\norder book (selling sequence):")
	for i, l := range market.OpenBook("t2.nano") {
		fmt.Printf("  %d. %-6s asks $%.2f\n", i+1, l.Seller, l.EffectiveAsk)
	}

	// A buyer wants two instances: bob's cheapest listing sells first,
	// then alice's.
	sales, err := market.Buy("dave", "t2.nano", 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\ndave buys two:")
	var aliceProceeds float64
	for _, s := range sales {
		fmt.Printf("  from %-6s paid $%.4f, fee $%.4f, seller receives $%.4f\n",
			s.Seller, s.PricePaid, s.Fee, s.SellerProceeds)
		if s.Seller == "alice" {
			aliceProceeds += s.SellerProceeds
		}
	}
	fmt.Printf("\nalice's proceeds: $%.3f (the paper's $7.2 * 0.88 = $6.336)\n", aliceProceeds)
	fmt.Printf("carol's overpriced listing is still open: %d listing(s) remain\n",
		market.Depth("t2.nano").Open)
}
