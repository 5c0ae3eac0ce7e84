package experiments

import (
	"context"
	"fmt"
	"math"
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
	// Stats is the one-card session's outcome.
	Stats MarketOutcome
}

// sellEvent is one reservation put up for sale during a simulation:
// the decision hour, the selling user, and the reservation's unexpired
// period at that hour. The instance type is the plan's card.
type sellEvent struct {
	hour      int
	seller    string
	remaining int
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
// order within each seller's hour. The records are counted first, so
// the events are allocated once at their exact size (nil when none).
func soldEvents(recs []simulate.InstanceRecord, seller string, periodHours int) []sellEvent {
	n := 0
	for _, inst := range recs {
		if inst.SoldAt >= 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	evs := make([]sellEvent, 0, n)
	for _, inst := range recs {
		if inst.SoldAt >= 0 {
			evs = append(evs, sellEvent{hour: inst.SoldAt, seller: seller, remaining: inst.Start + periodHours - inst.SoldAt})
		}
	}
	return evs
}

// layoutByHour lays the sellers' events out by hour with a counting
// sort on off, which must be zeroed and one longer than the last event
// hour: off[h] ends as the count of events up to hour h. Each hour
// keeps the sellers in perUser order and each seller's events in its
// own order, as a stable sort by hour would.
func layoutByHour(perUser [][]sellEvent, off []int) []sellEvent {
	for _, evs := range perUser {
		for _, ev := range evs {
			off[ev.hour+1]++
		}
	}
	for h := 1; h < len(off); h++ {
		off[h] += off[h-1]
	}
	events := make([]sellEvent, off[len(off)-1])
	for _, evs := range perUser {
		for _, ev := range evs {
			events[off[ev.hour]] = ev
			off[ev.hour]++
		}
	}
	return events
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
// A_{3T/4} runs produce, each user replayed on its worker's Scratch up
// to its last checkpoint (userSellEvents), and runs a one-card session
// on them per buyer arrival rate (arrivalSessions). The book charges
// Amazon's 12% fee (marketplace.AmazonFee) whatever the plan's
// MarketFee says; riexp refuses -exp market with an explicit -fee.
func (p *CohortPlan) MarketSession(ctx context.Context, buyerRates []float64) ([]MarketPoint, error) {
	cfg := p.cfg
	policy, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	m := obs.FromContext(ctx)
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount, Metrics: m.EngineHook()}
	perUser := make([][]sellEvent, p.Len())
	scratch := make([]simulate.Scratch, workerCount(cfg.Parallelism, p.Len()))
	_, err = runPool(ctx, cfg.Parallelism, p.Len(), func(w, i int) error {
		u := &p.users[i]
		evs, err := userSellEvents(m, &scratch[w], u.Trace.User, u.Trace.Demand, u.NewRes, engCfg, policy)
		perUser[i] = evs
		return err
	})
	if err != nil {
		return nil, err
	}
	return arrivalSessions(ctx, cfg.Instance, cfg.SellingDiscount, perUser, buyerRates, cfg.Seed)
}

// arrivalSessions runs one one-card session per buyer rate on the
// sellers' events, laid out by hour once. The buyers are exogenous:
// rate r brings floor(r) of them each hour, plus one more when the
// hour's hash draw under seed is below frac(r), and each takes the
// cheapest listing whatever its ask. A session lists at discount on a
// book charging marketplace.AmazonFee and ends the hour after the
// longest-lived listing expires.
func arrivalSessions(ctx context.Context, card pricing.InstanceType, discount float64, perUser [][]sellEvent, rates []float64, seed int64) ([]MarketPoint, error) {
	for _, rate := range rates {
		if rate < 0 {
			return nil, fmt.Errorf("experiments: buyer rate %v negative", rate)
		}
	}
	// Every listing hour lies inside the session, so an event with no
	// remaining period reaches ListDeclining and is rejected there.
	horizon, listed := 0, 0
	for _, evs := range perUser {
		for _, ev := range evs {
			if ev.hour < 0 {
				return nil, fmt.Errorf("experiments: sell event at negative hour %d", ev.hour)
			}
			horizon = max(horizon, ev.hour+1, ev.hour+ev.remaining+1)
			listed++
		}
	}
	if listed == 0 {
		return nil, fmt.Errorf("experiments: no sell events")
	}
	events := layoutByHour(perUser, make([]int, horizon+1))

	points := make([]MarketPoint, 0, len(rates))
	for _, rate := range rates {
		buyOff := make([]int, horizon+1)
		for h := range horizon {
			arrivals := int(rate)
			if frac := rate - float64(arrivals); frac > 0 && hashUniform(uint64(seed), uint64(h), 0) < frac {
				arrivals++
			}
			buyOff[h+1] = buyOff[h] + arrivals
		}
		st := cardStream{
			card:    card,
			events:  events,
			buyOff:  buyOff,
			buyers:  make([]int, buyOff[horizon]),
			names:   []string{"buyer"},
			ceiling: math.Inf(1),
		}
		res, err := runSession(ctx, marketplace.AmazonFee, discount, horizon, []cardStream{st})
		if err != nil {
			return nil, err
		}
		points = append(points, MarketPoint{BuyerRate: rate, Stats: res.Outcomes[0]})
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
