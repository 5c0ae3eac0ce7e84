package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"rimarket/internal/core"
	"rimarket/internal/experiments"
	"rimarket/internal/marketplace"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// sessionCards are the types traded in the market-session workload:
// the paper's d2.xlarge plus two cheap, heavily used types, so the book
// holds three independent price ladders at once.
var sessionCards = []string{"d2.xlarge", "m4.large", "c4.large"}

// sessionScenario is rimarket -session with a one-year term and about
// 300 users per fluctuation group per card, which puts ~30k listings
// and ~43k buy orders through the book. Test scale is rimarket's
// default: a 6x shorter term and 8 users per group.
func sessionScenario(o options) (experiments.MarketScenario, error) {
	scale, perGroup := 1.0, 300
	if !o.full {
		scale, perGroup = 6, 8
	}
	cat := pricing.StandardLinuxUSEast()
	var cards []pricing.InstanceType
	for _, name := range sessionCards {
		it, err := cat.Lookup(name)
		if err != nil {
			return experiments.MarketScenario{}, err
		}
		it.PeriodHours = int(float64(it.PeriodHours) / scale)
		it.Upfront /= scale
		cards = append(cards, it)
	}
	return experiments.MarketScenario{
		Base: experiments.Config{
			Instance:        cards[0],
			SellingDiscount: 0.8,
			MarketFee:       marketplace.AmazonFee,
			PerGroup:        perGroup,
			Hours:           cards[0].PeriodHours,
			Seed:            o.seed,
			Parallelism:     workers(),
		},
		Cards: cards,
	}, nil
}

// marketSession measures rimarket -session. Set-up is planning the
// cohort against every card; a pass is one RunMarketScenario. After the
// measured phase the benchmark replays the session's order flow through
// its own order book and holds the program's counts to it.
func marketSession(ctx context.Context, o options, t *tally, m metrics, report map[string]any) error {
	sc, err := sessionScenario(o)
	if err != nil {
		return err
	}
	if o.trace {
		return traceLayers(ctx, o, scenario{base: sc.Base, cards: sc.Cards, policies: onlinePolicies}, t, m, report)
	}
	var plans []*experiments.CohortPlan
	setup, err := setups(func() error {
		plans = nil // let the previous set-up's plans go before building anew
		plans, err = planCards(ctx, sc.Base, sc.Cards, nil)
		return err
	})
	if err != nil {
		return err
	}
	var last *experiments.MarketResult
	ps, err := passes(o.budget, func() error {
		res, err := experiments.RunMarketScenario(ctx, sc)
		t.check(err)
		if err != nil {
			return err
		}
		t.check(checkOutcomes(res))
		last = res
		return nil
	})
	if err != nil {
		return err
	}

	streams, err := sellStreams(plans, sc.Cards, sc.Base.SellingDiscount, false)
	if err != nil {
		return err
	}
	replay, err := replayBook(sc, plans, streams, false)
	if err != nil {
		return err
	}
	t.check(matchCounts(last, replay))

	m.set("setup_s", setup, "s")
	ps.set(m, report)
	report["outcomes"] = last.Outcomes
	return nil
}

// planCards plans the base cohort against each card, from traces when
// given (PlanTraces) and synthesized otherwise (NewCohortPlan).
func planCards(ctx context.Context, base experiments.Config, cards []pricing.InstanceType, traces []workload.Trace) ([]*experiments.CohortPlan, error) {
	plans := make([]*experiments.CohortPlan, len(cards))
	for ci, card := range cards {
		cfg := base
		cfg.Instance = card
		var err error
		if traces != nil {
			plans[ci], err = experiments.PlanTraces(ctx, cfg, traces)
		} else {
			plans[ci], err = experiments.NewCohortPlan(ctx, cfg)
		}
		if err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// namedPolicy is one selling policy a traced pass replays. online is its
// slot in the session's round-robin (user i sells under slot i mod 3),
// or -1 for policies that never list on the book.
type namedPolicy struct {
	name   string
	policy simulate.SellingPolicy
	online int
}

// onlinePolicies are the paper's three online algorithms in the order
// the market session assigns them round-robin.
func onlinePolicies(card pricing.InstanceType, a float64) ([]namedPolicy, error) {
	var out []namedPolicy
	for i, mk := range []func(pricing.InstanceType, float64) (core.Threshold, error){core.NewA3T4, core.NewAT2, core.NewAT4} {
		p, err := mk(card, a)
		if err != nil {
			return nil, err
		}
		out = append(out, namedPolicy{name: experiments.SellingPolicies[i], policy: p, online: i})
	}
	return out, nil
}

// allPolicies are the seven policies of the paper's cohort experiment:
// Keep-Reserved, the three online algorithms and the three All-Selling
// baselines.
func allPolicies(card pricing.InstanceType, a float64) ([]namedPolicy, error) {
	out, err := onlinePolicies(card, a)
	if err != nil {
		return nil, err
	}
	out = append(out, namedPolicy{name: experiments.PolicyKeep, policy: core.KeepReserved{}, online: -1})
	for i, k := range []float64{core.Fraction3T4, core.FractionT2, core.FractionT4} {
		p, err := core.NewAllSelling(k)
		if err != nil {
			return nil, err
		}
		name := []string{experiments.PolicySell3T4, experiments.PolicySellT2, experiments.PolicySellT4}[i]
		out = append(out, namedPolicy{name: name, policy: p, online: -1})
	}
	return out, nil
}

// sellEvent is one reservation listed on the book.
type sellEvent struct {
	hour, remaining int
	seller          string
}

// eventsOf turns one engine run's sales into listings.
func eventsOf(run simulate.Result, seller string, period int) []sellEvent {
	var evs []sellEvent
	for _, inst := range run.Instances {
		if inst.SoldAt >= 0 {
			evs = append(evs, sellEvent{hour: inst.SoldAt, remaining: inst.Start + period - inst.SoldAt, seller: seller})
		}
	}
	return evs
}

// mergeStream concatenates per-user listings in cohort order and
// stable-sorts them by hour: the session's listing order, which decides
// equal-ask fill priority.
func mergeStream(perUser [][]sellEvent) []sellEvent {
	var evs []sellEvent
	for _, u := range perUser {
		evs = append(evs, u...)
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].hour < evs[j].hour })
	return evs
}

// sellStreams is each card's listing stream: user i's sales under
// online policy i mod 3. With every, each user is replayed under all
// three policies first, as RunMarketScenario does before its loop.
func sellStreams(plans []*experiments.CohortPlan, cards []pricing.InstanceType, a float64, every bool) ([][]sellEvent, error) {
	streams := make([][]sellEvent, len(cards))
	for ci, card := range cards {
		pols, err := onlinePolicies(card, a)
		if err != nil {
			return nil, err
		}
		eng := simulate.Config{Instance: card, SellingDiscount: a}
		perUser := make([][]sellEvent, plans[ci].Len())
		for i, u := range plans[ci].Users() {
			for _, p := range pols {
				if !every && p.online != i%len(pols) {
					continue
				}
				run, err := simulate.Run(u.Trace.Demand, u.NewRes, eng, p.policy)
				if err != nil {
					return nil, fmt.Errorf("user %s: %w", u.Trace.User, err)
				}
				if p.online == i%len(pols) {
					perUser[i] = eventsOf(run, u.Trace.User, card.PeriodHours)
				}
			}
		}
		streams[ci] = mergeStream(perUser)
	}
	return streams, nil
}

// callTimer accumulates the count and, when on, the wall time of one
// kind of order-book call.
type callTimer struct {
	on    bool
	n, ns int64
}

func (c *callTimer) start() time.Time {
	if !c.on {
		return time.Time{}
	}
	return time.Now()
}

func (c *callTimer) stop(t0 time.Time) {
	c.n++
	if c.on {
		c.ns += int64(time.Since(t0))
	}
}

func (c *callTimer) mean() float64 { return float64(c.ns) / float64(max(c.n, 1)) }

// bookReplay is what a replay of a session's order flow counted and,
// when timed, how long each kind of book call took.
type bookReplay struct {
	outcomes               []experiments.MarketOutcome
	list, buy, step, depth callTimer
	wall                   time.Duration
}

// replayBook drives a fresh OrderBook with the session's order flow, in
// the session's order: each hour ages the book, lists the hour's sales,
// then offers every planned reservation the best listing when it beats
// a fresh reservation's per-hour upfront.
func replayBook(sc experiments.MarketScenario, plans []*experiments.CohortPlan, streams [][]sellEvent, timed bool) (*bookReplay, error) {
	start := time.Now()
	book, err := marketplace.NewOrderBook(sc.Base.MarketFee)
	if err != nil {
		return nil, err
	}
	r := &bookReplay{outcomes: make([]experiments.MarketOutcome, len(sc.Cards))}
	r.list.on, r.buy.on, r.step.on, r.depth.on = timed, timed, timed, timed
	index := make(map[string]int, len(sc.Cards))
	for ci, card := range sc.Cards {
		index[card.Name] = ci
		r.outcomes[ci].Type = card.Name
	}
	next := make([]int, len(sc.Cards))
	for hour := 0; hour < sc.Base.Hours; hour++ {
		if hour > 0 {
			t0 := r.step.start()
			res := book.Step()
			r.step.stop(t0)
			for _, l := range res.Expired {
				r.outcomes[index[l.Instance.Name]].Expired++
			}
		}
		for ci, card := range sc.Cards {
			evs := streams[ci]
			for ; next[ci] < len(evs) && evs[next[ci]].hour == hour; next[ci]++ {
				ev := evs[next[ci]]
				t0 := r.list.start()
				_, err := book.ListDeclining(ev.seller, card, ev.remaining, sc.Base.SellingDiscount)
				r.list.stop(t0)
				if err != nil {
					return nil, fmt.Errorf("listing %s at hour %d: %w", ev.seller, hour, err)
				}
				r.outcomes[ci].Listed++
			}
		}
		for ci, card := range sc.Cards {
			o := &r.outcomes[ci]
			fresh := card.Upfront / float64(card.PeriodHours)
			for _, u := range plans[ci].Users() {
				if hour >= len(u.NewRes) {
					continue
				}
				for k := 0; k < u.NewRes[hour]; k++ {
					o.BuyerDemand++
					t0 := r.depth.start()
					d := book.Depth(card.Name)
					r.depth.stop(t0)
					if d.Open == 0 || d.BestAsk > fresh*float64(d.BestRemaining) {
						o.FreshBuys++
						continue
					}
					t0 = r.buy.start()
					trades, err := book.Buy(u.Trace.User, card.Name, 1)
					r.buy.stop(t0)
					if err != nil || len(trades) != 1 {
						return nil, fmt.Errorf("buying %s at hour %d: %d fills, %v", card.Name, hour, len(trades), err)
					}
					o.Sold++
					o.UsedFills++
				}
			}
		}
		for ci, card := range sc.Cards {
			t0 := r.depth.start()
			d := book.Depth(card.Name)
			r.depth.stop(t0)
			r.outcomes[ci].PeakDepth = max(r.outcomes[ci].PeakDepth, d.Open)
		}
	}
	for ci, card := range sc.Cards {
		r.outcomes[ci].OpenAtEnd = book.Depth(card.Name).Open
	}
	r.wall = time.Since(start)
	return r, nil
}

// checkOutcomes holds each type's session counts to conservation:
// every listing is sold, expired or still open, and every buy order is
// filled used or bought fresh.
func checkOutcomes(res *experiments.MarketResult) error {
	for _, o := range res.Outcomes {
		if o.Listed != o.Sold+o.Expired+o.OpenAtEnd || o.UsedFills != o.Sold || o.UsedFills+o.FreshBuys != o.BuyerDemand {
			return fmt.Errorf("%s: listed %d != sold %d + expired %d + open %d, or fills %d + fresh %d != demand %d",
				o.Type, o.Listed, o.Sold, o.Expired, o.OpenAtEnd, o.UsedFills, o.FreshBuys, o.BuyerDemand)
		}
	}
	return nil
}

// matchCounts holds the program's session to the benchmark's replay of
// the same order flow: per type, every count must be equal.
func matchCounts(res *experiments.MarketResult, r *bookReplay) error {
	if len(res.Outcomes) != len(r.outcomes) {
		return fmt.Errorf("session has %d types, replay %d", len(res.Outcomes), len(r.outcomes))
	}
	for i, got := range res.Outcomes {
		want := r.outcomes[i]
		if got.Type != want.Type || got.Listed != want.Listed || got.Sold != want.Sold || got.Expired != want.Expired ||
			got.OpenAtEnd != want.OpenAtEnd || got.BuyerDemand != want.BuyerDemand || got.UsedFills != want.UsedFills ||
			got.FreshBuys != want.FreshBuys || got.PeakDepth != want.PeakDepth {
			return fmt.Errorf("%s: session listed/sold/expired/open/demand/used/fresh/peak %d/%d/%d/%d/%d/%d/%d/%d, replay %d/%d/%d/%d/%d/%d/%d/%d",
				got.Type, got.Listed, got.Sold, got.Expired, got.OpenAtEnd, got.BuyerDemand, got.UsedFills, got.FreshBuys, got.PeakDepth,
				want.Listed, want.Sold, want.Expired, want.OpenAtEnd, want.BuyerDemand, want.UsedFills, want.FreshBuys, want.PeakDepth)
		}
	}
	return nil
}
