package experiments

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"rimarket/internal/core"
	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// MarketScenario parameterizes a two-sided market session: one shared
// cohort configuration and the set of price cards traded on the book.
// Reservation behaviors depend on the card, so each user is planned
// against every card, once per distinct plan. Each user's sell
// decisions under one of the paper's three online algorithms —
// assigned round-robin across the cohort, so listings arrive from T/4
// onward instead of all at 3T/4 — become the seller side, while the
// planned reservation schedules become the buyer side: every new
// reservation a behavior would buy fresh first shops the order book
// for a cheaper-per-hour used listing. No exogenous sale probability
// or buyer arrival rate enters anywhere: fills emerge from the two
// sides meeting on the book.
type MarketScenario struct {
	// Base is the shared cohort configuration. Base.Instance is ignored
	// (Cards supplies the traded types); Base.MarketFee is the book's
	// fee; Base.SellingDiscount is the sellers' listing discount a.
	Base Config
	// Cards are the instance types traded in the session.
	Cards []pricing.InstanceType
}

// Validate reports whether the scenario is usable.
func (s MarketScenario) Validate() error {
	if len(s.Cards) == 0 {
		return fmt.Errorf("experiments: market scenario has no instance cards")
	}
	seen := make(map[string]bool, len(s.Cards))
	for _, card := range s.Cards {
		if err := card.Validate(); err != nil {
			return err
		}
		if seen[card.Name] {
			return fmt.Errorf("experiments: market scenario lists card %q twice", card.Name)
		}
		seen[card.Name] = true
	}
	cfg := s.Base
	cfg.Instance = s.Cards[0]
	return cfg.Validate()
}

// MarketOutcome is one instance type's measured market behavior over a
// session: how the seller side fared (sale probability, time to sale)
// and how the buyer side sourced its reservations (used fills versus
// fresh purchases). SaleProbability measures what the paper's Eq. (1)
// assumes, a sale in the hour of listing at discount a, as
// Sold/Listed from matched trades, with nothing assumed. It is not the
// paper's alpha, which is the reservation's hourly price ratio.
//
//rilint:frozen
type MarketOutcome struct {
	// Type names the instance type.
	Type string
	// Listed, Sold, Expired and OpenAtEnd count the type's listings
	// through their session outcomes.
	Listed, Sold, Expired, OpenAtEnd int
	// SaleProbability is Sold/Listed (0 when nothing listed); listings
	// still open at the horizon count as unsold.
	SaleProbability float64
	// MeanHoursToSale averages the listing-to-fill wait over sold
	// listings.
	MeanHoursToSale float64
	// RealizedFraction is SellerProceeds over the income Eq. (1) books
	// for the same listings: an instant sale at each listing's opening
	// ask, discount a of its prorated cap, less the book's fee. It is 1
	// when every listing sells in its listing hour, lower when listings
	// wait down their declining schedules or go unsold, and 0 when
	// nothing listed.
	RealizedFraction float64
	// BuyerDemand counts reservation units the buyers wanted; UsedFills
	// of them came off the book, FreshBuys fell through to a fresh
	// reservation (for exogenous buyers: found the book empty).
	BuyerDemand, UsedFills, FreshBuys int
	// FillRate is UsedFills/BuyerDemand (0 when no demand).
	FillRate float64
	// PeakDepth and MeanDepth describe the book's open-listing count
	// for the type over the session's hours.
	PeakDepth int
	MeanDepth float64
	// BuyerPaid, SellerProceeds and Fees are the type's money flows,
	// each summed in trade order. Conservation is per trade and
	// bit-exact — PricePaid == Fee + SellerProceeds for every fill, so
	// the trade-order sum of recompositions equals BuyerPaid exactly —
	// while BuyerPaid and SellerProceeds+Fees, being independently
	// accumulated sums, may differ in the last ulp.
	BuyerPaid, SellerProceeds, Fees float64
}

// MarketResult is a completed two-sided market session.
type MarketResult struct {
	// Horizon is the session length in hours.
	Horizon int
	// Outcomes holds one outcome per card, in scenario card order.
	Outcomes []MarketOutcome
	// BuyerPaid, SellerProceeds and Fees are the session-wide money
	// flows from the book's ledger, summed in trade order (see the
	// conservation note on MarketOutcome).
	BuyerPaid, SellerProceeds, Fees float64
}

// marketTally accumulates one card's session statistics before the
// frozen outcome is built.
type marketTally struct {
	listed, sold, expired int
	hoursToSale           int
	demand, used, fresh   int
	peakDepth             int
	depthSum              int64
	paid, proceeds, fees  float64
	// split re-sums fee+proceeds per trade in the same order as paid;
	// paid == split bit-exactly because each trade recomposes exactly.
	split float64
	// assumed sums Eq. (1)'s instant-sale income per listing, in
	// listing order.
	assumed float64
}

// cardStream is one card's session input: the seller events laid out
// by hour (layoutByHour), and the buyer side, a per-hour stream of buy
// orders with the acceptance ceiling they share. Nothing in it changes
// during a session, so one stream can be played more than once.
type cardStream struct {
	card   pricing.InstanceType
	events []sellEvent
	// buyOff[h]..buyOff[h+1] indexes buyers for hour h's buy orders.
	buyOff []int
	// buyers holds one index into names per wanted reservation unit,
	// hour by hour, in shopping order within each hour.
	buyers []int
	names  []string
	// ceiling is the most a buyer pays per remaining hour of a listing:
	// it takes the cheapest listing when its ask is at most ceiling
	// times the listing's remaining hours, and otherwise buys fresh.
	ceiling float64
}

// buyOrder is a nonzero hour of one user's plan on one card.
type buyOrder struct{ hour, units int }

// sessionWorker is one session worker's memory, reused from one user
// to the next: purchasers, one plan buffer per card, replay scratch.
type sessionWorker struct {
	planners purchasing.Planners
	newRes   [][]int
	replay   simulate.Scratch
}

// sessionStreams synthesizes the cohort, which every card shares, and
// builds every card's stream in one cohortFeed fan-out, the plan span:
// job 0 draws the traces, and job i+1 takes user i through the cards in
// order on its worker's sessionWorker. Per card it plans the user,
// unless an earlier card plans alike (purchasing.SamePlan; the first
// such card holds the plan); replays the plan under
// SellingPolicies[i mod 3] up to its last checkpoint for the sell
// events (userSellEvents); and keeps its buy orders. A serial pass then
// lays each card's events and buy orders out by hour, users in cohort
// order. Buyers are named by their traces, and take a used listing
// when its ask per remaining hour is at most the card's fresh
// Upfront/PeriodHours.
func sessionStreams(ctx context.Context, sc MarketScenario) ([]cardStream, error) {
	sp := obs.StartSpan(ctx, "plan")
	defer sp.End()
	cards, m := sc.Cards, obs.FromContext(ctx)
	// policies[ci] holds card ci's three online sellers, and src[b][ci]
	// the first card on which behavior b plans as on card ci.
	policies := make([][]simulate.SellingPolicy, len(cards))
	src := make([][]int, len(purchasing.Behaviors))
	for ci, card := range cards {
		for _, k := range []float64{core.Fraction3T4, core.FractionT2, core.FractionT4} {
			p, err := core.NewThreshold(card, sc.Base.SellingDiscount, k)
			if err != nil {
				return nil, err
			}
			policies[ci] = append(policies[ci], p)
		}
		for b, behavior := range purchasing.Behaviors {
			src[b] = append(src[b], ci)
			if s := slices.IndexFunc(cards[:ci], func(c pricing.InstanceType) bool { return purchasing.SamePlan(behavior, c, card) }); s >= 0 {
				src[b][ci] = s
			}
		}
	}
	feed, err := synthFeed(sc.Base, sc.Base.Hours)
	if err != nil {
		return nil, err
	}
	n := feed.Len()
	events, buys := make([][][]sellEvent, len(cards)), make([][][]buyOrder, len(cards))
	for ci := range cards {
		events[ci], buys[ci] = make([][]sellEvent, n), make([][]buyOrder, n)
	}
	workers := make([]sessionWorker, workerCount(sc.Base.Parallelism, n+1))
	err = feed.run(ctx, sc.Base.Parallelism, func(w, i int, tr workload.Trace) error {
		sw := &workers[w]
		sw.newRes = slices.Grow(sw.newRes[:0], len(cards))[:len(cards)]
		src := src[i%len(purchasing.Behaviors)]
		for ci, card := range cards {
			cfg := sc.Base
			cfg.Instance = card
			if src[ci] == ci {
				sw.newRes[ci] = slices.Grow(sw.newRes[ci][:0], tr.Len())[:tr.Len()]
				if _, err := planUser(cfg, i, tr, &sw.planners, sw.newRes[ci]); err != nil {
					return err
				}
			}
			newRes := sw.newRes[src[ci]]
			engCfg := simulate.Config{Instance: card, SellingDiscount: cfg.SellingDiscount, Metrics: m.EngineHook()}
			evs, err := userSellEvents(m, &sw.replay, tr.User, tr.Demand, newRes, engCfg, policies[ci][i%3])
			if err != nil {
				return err
			}
			events[ci][i] = evs
			for h, units := range newRes {
				if units > 0 {
					buys[ci][i] = append(buys[ci][i], buyOrder{h, units})
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	names := make([]string, n)
	for i, tr := range feed.traces {
		names[i] = tr.User
	}
	streams := make([]cardStream, len(cards))
	for ci, card := range cards {
		st := &streams[ci]
		*st = cardStream{card: card, buyOff: make([]int, sc.Base.Hours+1), names: names, ceiling: card.Upfront / float64(card.PeriodHours)}
		// The events borrow buyOff for their offsets until the buy
		// orders need it.
		st.events = layoutByHour(events[ci], st.buyOff)
		clear(st.buyOff)
		// Counting sort: buyOff[h] sums the units of hours up to h, and
		// each row fills back to front, last user first.
		for _, orders := range buys[ci] {
			for _, o := range orders {
				st.buyOff[o.hour] += o.units
			}
		}
		for h := 1; h <= sc.Base.Hours; h++ {
			st.buyOff[h] += st.buyOff[h-1]
		}
		st.buyers = make([]int, st.buyOff[sc.Base.Hours])
		for ui := n - 1; ui >= 0; ui-- {
			for _, o := range buys[ci][ui] {
				for range o.units {
					st.buyOff[o.hour]--
					st.buyers[st.buyOff[o.hour]] = ui
				}
			}
		}
	}
	return streams, nil
}

// RunMarketScenario synthesizes the scenario's cohort once and, in the
// same fan-out, plans each user against every card, replays its sell
// decisions and keeps its buy orders (sessionStreams); then it plays
// all cards through a single hour-stepped order book at the scenario's
// fee over its Hours (runSession), routing the hour's planned
// reservations through the book before falling back to fresh
// purchases. The session loop is sequential, and its inputs are merged
// in cohort order after the fan-out, so the result is byte-identical
// at any Parallelism.
//
// Reservation plans are fixed upstream, as in the paper's pipeline:
// buying used covers the same demand at the same reserved rate, so the
// session measures market clearing without feeding back into planning.
func RunMarketScenario(ctx context.Context, sc MarketScenario) (*MarketResult, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sp := obs.StartSpan(ctx, "market-session")
	defer sp.End()

	streams, err := sessionStreams(ctx, sc)
	if err != nil {
		return nil, err
	}
	return runSession(ctx, sc.Base.MarketFee, sc.Base.SellingDiscount, sc.Base.Hours, streams)
}

// runSession plays the streams through one fresh order book charging
// fee, listing at discount, for horizon hours (sessionLoop), and builds
// one outcome per stream, in stream order. Money must be conserved
// bit-exactly per trade, per card and over the book's ledger.
func runSession(ctx context.Context, fee, discount float64, horizon int, streams []cardStream) (*MarketResult, error) {
	book, err := marketplace.NewOrderBook(fee)
	if err != nil {
		return nil, err
	}
	tallies, err := sessionLoop(ctx, book, fee, discount, horizon, streams)
	if err != nil {
		return nil, err
	}

	res := &MarketResult{Horizon: horizon, Outcomes: make([]MarketOutcome, len(streams))}
	for ci, st := range streams {
		t := &tallies[ci]
		// Per-card conservation: fee+proceeds recomposes the price paid
		// bit-exactly per trade, so the trade-order sums must be equal.
		if t.paid != t.split {
			return nil, fmt.Errorf("experiments: market session conservation broken for %s: buyers paid %v, sellers+fees received %v",
				st.card.Name, t.paid, t.split)
		}
		var saleProb, meanWait, realized, fillRate float64
		if t.listed > 0 {
			saleProb = float64(t.sold) / float64(t.listed)
		}
		if t.sold > 0 {
			meanWait = float64(t.hoursToSale) / float64(t.sold)
		}
		if t.assumed > 0 {
			realized = t.proceeds / t.assumed
		}
		if t.demand > 0 {
			fillRate = float64(t.used) / float64(t.demand)
		}
		res.Outcomes[ci] = MarketOutcome{
			Type:             st.card.Name,
			Listed:           t.listed,
			Sold:             t.sold,
			Expired:          t.expired,
			OpenAtEnd:        book.Depth(st.card.Name).Open,
			SaleProbability:  saleProb,
			MeanHoursToSale:  meanWait,
			RealizedFraction: realized,
			BuyerDemand:      t.demand,
			UsedFills:        t.used,
			FreshBuys:        t.fresh,
			FillRate:         fillRate,
			PeakDepth:        t.peakDepth,
			MeanDepth:        float64(t.depthSum) / float64(horizon),
			BuyerPaid:        t.paid,
			SellerProceeds:   t.proceeds,
			Fees:             t.fees,
		}
	}

	// Session-wide conservation, checked in the book's own trade order:
	// re-summing the ledger's recompositions must reproduce the paid
	// total bit-exactly, and the book's running totals must match their
	// ledger re-sums (both accumulate per trade in the same order).
	var paid, split, proceeds, fees float64
	for _, tr := range book.Trades() {
		paid += tr.PricePaid
		split += tr.Fee + tr.SellerProceeds
		proceeds += tr.SellerProceeds
		fees += tr.Fee
	}
	gotPaid, gotProceeds, gotFees := book.Totals()
	if paid != split || gotPaid != paid || gotProceeds != proceeds || gotFees != fees {
		return nil, fmt.Errorf("experiments: market session conservation broken: ledger re-sums (%v, %v, %v, %v) vs book totals (%v, %v, %v)",
			paid, split, proceeds, fees, gotPaid, gotProceeds, gotFees)
	}
	res.BuyerPaid = gotPaid
	res.SellerProceeds = gotProceeds
	res.Fees = gotFees
	return res, nil
}

// sessionLoop is the one hour loop that drives an order book, timed as
// the session_loop span. Each hour ages the book (expiring and
// repricing listings), lists the hour's sell events under the declining
// schedule at discount, and routes the hour's buy orders through the
// book, card by card in stream order. fee is the book's, for Eq. (1)'s
// assumed income. It returns one tally per stream, in stream order.
func sessionLoop(ctx context.Context, book *marketplace.OrderBook, fee, discount float64, horizon int, streams []cardStream) ([]marketTally, error) {
	sp := obs.StartSpan(ctx, "session_loop")
	defer sp.End()
	m := obs.FromContext(ctx)

	tallies := make([]marketTally, len(streams))
	next := make([]int, len(streams))
	byName := make(map[string]*marketTally, len(streams))
	for ci, st := range streams {
		byName[st.card.Name] = &tallies[ci]
	}
	for hour := 0; hour < horizon; hour++ {
		if hour > 0 {
			res := book.Step()
			for _, lst := range res.Expired {
				byName[lst.Instance.Name].expired++
				if m != nil {
					m.MarketExpiries.Add(1)
				}
			}
		}

		for ci, st := range streams {
			t := &tallies[ci]
			for ; next[ci] < len(st.events) && st.events[next[ci]].hour == hour; next[ci]++ {
				ev := st.events[next[ci]]
				if _, err := book.ListDeclining(ev.seller, st.card, ev.remaining, discount); err != nil {
					return nil, fmt.Errorf("experiments: listing %s's reservation at hour %d: %w", ev.seller, hour, err)
				}
				t.listed++
				t.assumed += discount * marketplace.ProratedCap(st.card, ev.remaining) * (1 - fee)
				if m != nil {
					m.MarketListings.Add(1)
				}
			}
		}

		// Buyers: each buy order shops the book first, in stream order.
		// It takes the cheapest listing when its ask is within the
		// stream's ceiling per remaining hour; otherwise (or when the
		// book is empty) the unit is bought fresh.
		for ci, st := range streams {
			t := &tallies[ci]
			for _, ui := range st.buyers[st.buyOff[hour]:st.buyOff[hour+1]] {
				t.demand++
				if m != nil {
					m.MarketBuyOrders.Add(1)
				}
				d := book.Depth(st.card.Name)
				if d.Open == 0 || d.BestAsk > st.ceiling*float64(d.BestRemaining) {
					t.fresh++
					if m != nil {
						m.MarketFreshBuys.Add(1)
					}
					continue
				}
				trades, err := book.Buy(st.names[ui], st.card.Name, 1)
				if err != nil {
					return nil, fmt.Errorf("experiments: buying %s at hour %d: %w", st.card.Name, hour, err)
				}
				tr := trades[0]
				wait := tr.Hour - tr.ListedAt
				t.used++
				t.sold++
				t.hoursToSale += wait
				t.paid += tr.PricePaid
				t.split += tr.Fee + tr.SellerProceeds
				t.proceeds += tr.SellerProceeds
				t.fees += tr.Fee
				if m != nil {
					m.MarketTrades.Add(1)
					m.MarketHoursToSale.Add(int64(wait))
				}
			}
		}

		for ci, st := range streams {
			d := book.Depth(st.card.Name)
			t := &tallies[ci]
			t.depthSum += int64(d.Open)
			if d.Open > t.peakDepth {
				t.peakDepth = d.Open
			}
		}
	}
	return tallies, nil
}

// RenderMarketOutcomes renders the session's per-instance-type table:
// the sale probability and waiting time that the paper's Eq. (1) takes
// as certain and zero, as measured quantities.
func RenderMarketOutcomes(res *MarketResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Two-sided market session — emergent sale probability over %d hours\n", res.Horizon)
	fmt.Fprintf(&b, "%-12s %7s %6s %8s %6s %8s %10s %7s %6s %6s %7s %8s\n",
		"type", "listed", "sold", "expired", "open", "P(sale)", "wait(h)", "demand", "used", "fresh", "fill", "fees($)")
	for _, o := range res.Outcomes {
		fmt.Fprintf(&b, "%-12s %7d %6d %8d %6d %8.3f %10.1f %7d %6d %6d %6.1f%% %8.2f\n",
			o.Type, o.Listed, o.Sold, o.Expired, o.OpenAtEnd, o.SaleProbability, o.MeanHoursToSale,
			o.BuyerDemand, o.UsedFills, o.FreshBuys, o.FillRate*100, o.Fees)
	}
	fmt.Fprintf(&b, "totals: buyers paid $%.2f = sellers $%.2f + fees $%.2f\n",
		res.BuyerPaid, res.SellerProceeds, res.Fees)
	return b.String()
}
