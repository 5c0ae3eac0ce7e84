// Command rimarket demonstrates the reserved-instance marketplace
// simulator. Its default mode lists a population of sellers'
// underutilized reservations at varying discounts and clears the book
// with a stream of buyers, showing the lowest-upfront-first selling
// sequence and the fee flows of Section III.B.
//
// With -session it instead runs the two-sided cohort market session:
// sellers come from the paper's online selling algorithms, buyers from
// the cohort's planned reservations shopping the order book before
// buying fresh, and the output is the per-instance-type table of
// emergent sale probability and time-to-sale — the paper's exogenous
// alpha as a measured quantity.
//
// Usage:
//
//	rimarket -sellers 12 -buyers 5 -instance d2.xlarge -fee 0.12
//	rimarket -session -instances d2.xlarge,m4.large -discount 0.8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"rimarket/internal/cli"
	"rimarket/internal/experiments"
	"rimarket/internal/marketplace"
	"rimarket/internal/pricing"
)

func main() {
	if err := runStderr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "rimarket:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run keeps the historical test entry point; observability notices
// (pprof address) are discarded without a stderr.
func run(args []string, w io.Writer) error { return runStderr(args, w, io.Discard) }

func runStderr(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("rimarket", flag.ContinueOnError)
	var (
		sellers  = fs.Int("sellers", 12, "number of sellers listing one reservation each")
		buyers   = fs.Int("buyers", 5, "number of buyers, each requesting a random count")
		instance = fs.String("instance", "d2.xlarge", "instance type from the built-in catalog")
		fee      = fs.Float64("fee", marketplace.AmazonFee, "marketplace service fee")
		seed     = fs.Int64("seed", 7, "seed for discounts and buyer demand")

		runSession  = fs.Bool("session", false, "run the two-sided cohort market session instead of the book demo")
		instances   = fs.String("instances", "d2.xlarge,m4.large", "comma-separated catalog types traded in the -session book")
		discount    = fs.Float64("discount", 0.8, "-session sellers' listing discount a (fraction of the prorated cap)")
		perGroup    = fs.Int("per-group", 8, "-session cohort users per fluctuation group")
		scale       = fs.Float64("scale", 6, "-session period divisor: scales the 1-year term down for fast runs")
		parallelism = fs.Int("parallelism", 0, "-session worker bound for cohort planning (0 = GOMAXPROCS)")
	)
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	return obsFlags.Run("rimarket", args, stderr, func(sess *cli.ObsSession) error {
		if mf := sess.Manifest(); mf != nil {
			mf.Seed = *seed
		}
		if *runSession {
			return marketSession(sess.Context(context.Background()), w,
				*instances, *discount, *fee, *perGroup, *scale, *seed, *parallelism)
		}
		return session(w, *sellers, *buyers, *instance, *fee, *seed)
	})
}

// marketSession runs the two-sided cohort market session and prints
// its per-instance-type outcome table.
func marketSession(ctx context.Context, w io.Writer, instances string, discount, fee float64,
	perGroup int, scale float64, seed int64, parallelism int) error {
	if scale < 1 {
		return fmt.Errorf("scale %v below 1", scale)
	}
	cat := pricing.StandardLinuxUSEast()
	var cards []pricing.InstanceType
	for _, name := range strings.Split(instances, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		it, err := cat.Lookup(name)
		if err != nil {
			return err
		}
		// Scale the term down with the upfront fee, keeping alpha and
		// theta — and hence every break-even — unchanged.
		it.PeriodHours = int(float64(it.PeriodHours) / scale)
		it.Upfront /= scale
		cards = append(cards, it)
	}
	if len(cards) == 0 {
		return fmt.Errorf("no instance types in %q", instances)
	}
	for _, it := range cards[1:] {
		if it.PeriodHours != cards[0].PeriodHours {
			return fmt.Errorf("instance periods differ (%s: %d h, %s: %d h); the session shares one horizon",
				cards[0].Name, cards[0].PeriodHours, it.Name, it.PeriodHours)
		}
	}
	sc := experiments.MarketScenario{
		Base: experiments.Config{
			Instance:        cards[0],
			SellingDiscount: discount,
			MarketFee:       fee,
			PerGroup:        perGroup,
			Hours:           cards[0].PeriodHours,
			Seed:            seed,
			Parallelism:     parallelism,
		},
		Cards: cards,
	}
	res, err := experiments.RunMarketScenario(ctx, sc)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, experiments.RenderMarketOutcomes(res))
	return err
}

// session runs one marketplace demonstration.
func session(w io.Writer, sellers, buyers int, instance string, fee float64, seed int64) error {
	it, err := pricing.StandardLinuxUSEast().Lookup(instance)
	if err != nil {
		return err
	}
	m, err := marketplace.New(marketplace.WithFee(fee))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed))

	fmt.Fprintf(w, "listing %d reservations of %s (R = $%.0f, T = %d h)\n",
		sellers, it.Name, it.Upfront, it.PeriodHours)
	for i := 0; i < sellers; i++ {
		seller := fmt.Sprintf("seller-%02d", i)
		remaining := it.PeriodHours / 4 * (1 + rng.Intn(3)) // T/4, T/2 or 3T/4 left
		discount := 0.5 + rng.Float64()*0.5
		id, err := m.ListAtDiscount(seller, it, remaining, discount)
		if err != nil {
			return err
		}
		cap := marketplace.ProratedCap(it, remaining)
		fmt.Fprintf(w, "  #%d %s: %4d h remaining, cap $%7.2f, ask $%7.2f (%.0f%% of cap)\n",
			id, seller, remaining, cap, discount*cap, discount*100)
	}

	fmt.Fprintf(w, "\nbuyers arrive (lowest ask sells first):\n")
	for i := 0; i < buyers; i++ {
		buyer := fmt.Sprintf("buyer-%02d", i)
		want := 1 + rng.Intn(3)
		sales, err := m.Buy(buyer, it.Name, want)
		if err != nil {
			fmt.Fprintf(w, "  %s wanted %d: %v\n", buyer, want, err)
			continue
		}
		for _, s := range sales {
			fmt.Fprintf(w, "  %s bought #%d from %s for $%.2f (seller nets $%.2f, fee $%.2f)\n",
				buyer, s.Listing.ID, s.Listing.Seller, s.PricePaid, s.SellerProceeds, s.Fee)
		}
	}

	fmt.Fprintf(w, "\nclearing summary: %d sales, marketplace fees $%.2f, %d listings still open\n",
		len(m.Sales()), m.FeesCollected(), len(m.OpenListings(it.Name)))
	return nil
}
