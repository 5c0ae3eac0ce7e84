package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"rimarket/internal/core"
	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

// MarketPoint is one buyer-arrival-rate setting of the market-dynamics
// experiment.
type MarketPoint struct {
	// BuyerRate is the mean buyer arrivals per hour.
	BuyerRate float64
	// Stats is the session outcome.
	Stats MarketStats
}

// MarketStats summarizes one market-dynamics session.
type MarketStats struct {
	// Listed, Sold and Expired count listings through their outcomes;
	// OpenAtEnd is what remained on the book at the horizon.
	Listed, Sold, Expired, OpenAtEnd int
	// MeanHoursToSale averages the wait from listing to sale over sold
	// listings.
	MeanHoursToSale float64
	// RealizedFraction is the sellers' after-fee income over what
	// Eq. (1) would have booked — an instant sale at the listing ask
	// for every sell event (1 when every listing sells in its listing
	// hour; lower when listings wait down their declining schedules or
	// expire unsold).
	RealizedFraction float64
}

// sellEvent is one reservation put up for sale during a simulation:
// the decision hour, the selling user, and the reservation's unexpired
// period at that hour. The instance type is the plan's card.
type sellEvent struct {
	hour      int
	seller    string
	remaining int
}

// sellEvents collects every sell event the plan's runs produce under
// the given selling policy — fanned out over the plan's worker pool,
// each worker replaying on its own Scratch and keeping only the
// events, with per-user event slices concatenated in cohort order so
// the stream is deterministic at any parallelism.
func (p *CohortPlan) sellEvents(ctx context.Context, policy simulate.SellingPolicy) ([]sellEvent, error) {
	cfg := p.cfg
	m := obs.FromContext(ctx)
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount, Metrics: m.EngineHook()}

	perUser := make([][]sellEvent, p.Len())
	scratch := make([]simulate.Scratch, workerCount(cfg.Parallelism, p.Len()))
	_, err := runPool(ctx, cfg.Parallelism, p.Len(), func(w, i int) error {
		u := &p.users[i]
		evs, err := userSellEvents(m, &scratch[w], u.Trace.User, u.Trace.Demand, u.NewRes, engCfg, policy)
		perUser[i] = evs
		return err
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perUser...), nil
}

// userSellEvents replays one user's plan on s under policy and returns
// its sell events. No hour after the plan's last in-horizon checkpoint
// (simulate.LastDecisionHour) can change a decision, so only the hours
// up to it are replayed: a zero-hour replay when there is none, which
// still books one engine run. A failure names the user.
func userSellEvents(m *obs.Metrics, s *simulate.Scratch, user string, demand, newRes []int, cfg simulate.Config, policy simulate.SellingPolicy) ([]sellEvent, error) {
	if len(demand) == len(newRes) { // else the replay reports the mismatch
		last := simulate.LastDecisionHour(newRes, policy, cfg.Instance.PeriodHours, len(demand))
		demand, newRes = demand[:last+1], newRes[:last+1]
	}
	if _, err := obsTotals(m, s, demand, newRes, cfg, policy); err != nil {
		return nil, fmt.Errorf("experiments: user %s: %w", user, err)
	}
	return soldEvents(s.Records(), user, cfg.Instance.PeriodHours), nil
}

// soldEvents returns the sell events among one replay's instance
// records, in reservation order (start hour ascending, then batch index
// ascending; the engine decides a batch highest index first): every
// reservation the seller sold, with its unexpired share of the card's
// period. A by-hour layout of several sellers' events must keep this
// order within each seller's hour.
func soldEvents(recs []simulate.InstanceRecord, seller string, periodHours int) []sellEvent {
	var evs []sellEvent
	for _, inst := range recs {
		if inst.SoldAt >= 0 {
			evs = append(evs, sellEvent{hour: inst.SoldAt, seller: seller, remaining: inst.Start + periodHours - inst.SoldAt})
		}
	}
	return evs
}

// replayMarket replays one card's sell events through an order book
// fed by an exogenous buyer stream. Each hour the book ages (expiring
// and repricing listings), the hour's sell events list under the
// declining schedule at the given discount, and the hour's buyers
// arrive, each taking the cheapest listing. The arrival count is
// deterministic in the seed: rate r yields floor(r) buyers plus one
// more when the hour's hash draw is below frac(r). The session ends
// the hour after the longest-lived listing expires.
func replayMarket(events []sellEvent, it pricing.InstanceType, discount, rate float64, seed int64) (MarketStats, error) {
	if len(events) == 0 {
		return MarketStats{}, fmt.Errorf("experiments: no sell events")
	}
	if rate < 0 {
		return MarketStats{}, fmt.Errorf("experiments: buyer rate %v negative", rate)
	}
	sorted := append([]sellEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].hour < sorted[j].hour })
	if sorted[0].hour < 0 {
		return MarketStats{}, fmt.Errorf("experiments: sell event at negative hour %d", sorted[0].hour)
	}
	horizon := 0
	for _, ev := range sorted {
		horizon = max(horizon, ev.hour+ev.remaining+1)
	}
	book, err := marketplace.NewOrderBook(marketplace.AmazonFee)
	if err != nil {
		return MarketStats{}, err
	}

	var st MarketStats
	var assumed, income float64
	waited, next := 0, 0
	for hour := 0; hour < horizon; hour++ {
		if hour > 0 {
			st.Expired += len(book.Step().Expired)
		}
		for ; next < len(sorted) && sorted[next].hour == hour; next++ {
			ev := sorted[next]
			if _, err := book.ListDeclining(ev.seller, it, ev.remaining, discount); err != nil {
				return MarketStats{}, fmt.Errorf("experiments: listing %s's reservation at hour %d: %w", ev.seller, hour, err)
			}
			st.Listed++
			assumed += discount * marketplace.ProratedCap(it, ev.remaining) * (1 - marketplace.AmazonFee)
		}
		arrivals := int(rate)
		if frac := rate - float64(arrivals); frac > 0 && hashUniform(uint64(seed), uint64(hour), 0) < frac {
			arrivals++
		}
		for b := 0; b < arrivals; b++ {
			trades, err := book.Buy("buyer", it.Name, 1)
			if err != nil {
				break // ErrNoListings: the rest of the hour's demand goes unfilled
			}
			st.Sold++
			income += trades[0].SellerProceeds
			waited += trades[0].Hour - trades[0].ListedAt
		}
	}
	st.OpenAtEnd = book.OpenCount()
	if st.Sold > 0 {
		st.MeanHoursToSale = float64(waited) / float64(st.Sold)
	}
	if assumed > 0 {
		st.RealizedFraction = income / assumed
	}
	return st, nil
}

// hashUniform maps (seed, hour, draw) to [0, 1) deterministically.
func hashUniform(words ...uint64) float64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, w := range words {
		h ^= w + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return float64(h>>11) / float64(1<<53)
}

// MarketSession quantifies the paper's instant-sale assumption: Eq. (1)
// books income the moment the algorithm decides, while a real
// marketplace needs a buyer. It collects every sell event the plan's
// A_{3T/4} runs produce and replays them through order-book sessions
// at the given buyer arrival rates.
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
		stats, err := replayMarket(events, cfg.Instance, cfg.SellingDiscount, rate, cfg.Seed)
		if err != nil {
			return nil, err
		}
		points = append(points, MarketPoint{BuyerRate: rate, Stats: stats})
	}
	return points, nil
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
