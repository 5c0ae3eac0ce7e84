package experiments

import (
	"context"
	"fmt"
	"strings"

	"rimarket/internal/core"
	"rimarket/internal/obs"
	"rimarket/internal/simulate"
	"rimarket/internal/trade"
)

// MarketPoint is one buyer-arrival-rate setting of the market-dynamics
// experiment.
type MarketPoint struct {
	// BuyerRate is the mean buyer arrivals per hour.
	BuyerRate float64
	// Stats is the session outcome.
	Stats trade.Stats
}

// sellEvents collects every sell event the plan's runs produce under
// the given selling policy — fanned out over the plan's worker pool,
// with per-user event slices concatenated in cohort order so the
// stream is deterministic at any parallelism.
func (p *CohortPlan) sellEvents(ctx context.Context, policy simulate.SellingPolicy) ([]trade.SellEvent, error) {
	perUser, err := p.sellEventsPerUser(ctx, policy)
	if err != nil {
		return nil, err
	}
	var events []trade.SellEvent
	for _, evs := range perUser {
		events = append(events, evs...)
	}
	return events, nil
}

// sellEventsPerUser is sellEvents before concatenation: element i holds
// user i's sell events in decision order.
func (p *CohortPlan) sellEventsPerUser(ctx context.Context, policy simulate.SellingPolicy) ([][]trade.SellEvent, error) {
	cfg := p.cfg
	m := obs.FromContext(ctx)
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount, Metrics: m.EngineHook()}

	perUser := make([][]trade.SellEvent, p.Len())
	err := p.ForEachUser(ctx, func(i int, u PlannedUser) error {
		run, _, err := obsRun(m, u.Trace.Demand, u.NewRes, engCfg, policy)
		if err != nil {
			return fmt.Errorf("experiments: user %s: %w", u.Trace.User, err)
		}
		for _, inst := range run.Instances {
			if inst.SoldAt < 0 {
				continue
			}
			perUser[i] = append(perUser[i], trade.SellEvent{
				Hour:           inst.SoldAt,
				Seller:         u.Trace.User,
				Instance:       cfg.Instance,
				RemainingHours: inst.Start + cfg.Instance.PeriodHours - inst.SoldAt,
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return perUser, nil
}

// MarketSession collects every sell event the plan's A_{3T/4} runs
// produce and replays them through live marketplace sessions at the
// given buyer arrival rates.
func (p *CohortPlan) MarketSession(ctx context.Context, buyerRates []float64) ([]MarketPoint, error) {
	cfg := p.cfg
	policy, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	events, err := p.sellEvents(ctx, policy)
	if err != nil {
		return nil, err
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("experiments: the cohort produced no sell events")
	}

	points := make([]MarketPoint, 0, len(buyerRates))
	for _, rate := range buyerRates {
		stats, err := trade.Run(events, trade.Config{
			ListingDiscount: cfg.SellingDiscount,
			MarketFee:       0.12,
			BuyerRate:       rate,
			Seed:            cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		points = append(points, MarketPoint{BuyerRate: rate, Stats: stats})
	}
	return points, nil
}

// MarketSession quantifies the paper's instant-sale assumption: Eq. (1)
// books income the moment the algorithm decides, while a real
// marketplace needs a buyer.
func MarketSession(ctx context.Context, cfg Config, buyerRates []float64) ([]MarketPoint, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.MarketSession(ctx, buyerRates)
}

// RenderMarket renders the market-dynamics experiment.
func RenderMarket(points []MarketPoint) string {
	var b strings.Builder
	b.WriteString("Market dynamics — does Eq. (1)'s instant-sale income materialize?\n")
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %14s %16s\n",
		"buyers/hour", "listed", "sold", "expired", "mean wait (h)", "realized income")
	for _, pt := range points {
		s := pt.Stats
		fmt.Fprintf(&b, "%-12.2f %8d %8d %8d %14.1f %15.1f%%\n",
			pt.BuyerRate, s.Listed, s.Sold, s.Expired, s.MeanHoursToSale, s.RealizedFraction*100)
	}
	return b.String()
}
