package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"rimarket/internal/pricing"
)

func TestMarketSession(t *testing.T) {
	cfg := smallConfig()
	points, err := MarketSession(context.Background(), cfg, []float64{0.1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	thin, thick := points[0].Stats, points[1].Stats
	if thin.Listed == 0 || thin.Listed != thick.Listed {
		t.Fatalf("listings inconsistent: %d vs %d", thin.Listed, thick.Listed)
	}
	// More buyers clear more listings and realize more income.
	if thick.Sold < thin.Sold {
		t.Errorf("thick market sold %d < thin market %d", thick.Sold, thin.Sold)
	}
	if thick.RealizedFraction < thin.RealizedFraction {
		t.Errorf("thick realized %v < thin %v", thick.RealizedFraction, thin.RealizedFraction)
	}
	// A flooded market realizes nearly all of Eq. (1)'s assumed income.
	if thick.RealizedFraction < 0.9 {
		t.Errorf("flooded market realized only %v", thick.RealizedFraction)
	}
	out := RenderMarket(points)
	if !strings.Contains(out, "realized income") || !strings.Contains(out, "buyers/hour") {
		t.Errorf("render:\n%s", out)
	}
}

func TestMarketSessionRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.PerGroup = 0
	if _, err := MarketSession(context.Background(), cfg, []float64{1}); err == nil {
		t.Error("bad config accepted")
	}
}

func TestMarketSessionDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := MarketSession(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarketSession(context.Background(), cfg, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Errorf("sessions differ: %+v vs %+v", a[0], b[0])
	}
}

// replayCard is a short-period card for direct replay tests: R = 100,
// T = 400 h, so the prorated cap is remaining/4.
func replayCard() pricing.InstanceType {
	return pricing.InstanceType{
		Name:           "replay.large",
		OnDemandHourly: 1.0,
		Upfront:        100,
		ReservedHourly: 0.25,
		PeriodHours:    400,
	}
}

func TestMarketSessionReplayConfigValidation(t *testing.T) {
	ok := []sellEvent{{hour: 0, seller: "s", remaining: 10}}
	if _, err := replayMarket(ok, replayCard(), 0.8, 1, 7); err != nil {
		t.Fatalf("valid replay rejected: %v", err)
	}
	tests := []struct {
		name     string
		discount float64
		rate     float64
	}{
		{name: "zero discount", discount: 0, rate: 1},
		{name: "discount above 1", discount: 1.5, rate: 1},
		{name: "negative rate", discount: 0.8, rate: -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := replayMarket(ok, replayCard(), tt.discount, tt.rate, 7); err == nil {
				t.Error("invalid replay accepted")
			}
		})
	}
}

func TestMarketSessionReplayEventValidation(t *testing.T) {
	tests := []struct {
		name   string
		events []sellEvent
	}{
		{name: "no events", events: nil},
		{name: "negative hour", events: []sellEvent{{hour: -1, seller: "s", remaining: 10}}},
		{name: "zero remaining", events: []sellEvent{{hour: 0, seller: "s", remaining: 0}}},
		{name: "remaining == period", events: []sellEvent{{hour: 0, seller: "s", remaining: 400}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := replayMarket(tt.events, replayCard(), 0.8, 1, 7); err == nil {
				t.Error("invalid replay accepted")
			}
		})
	}
}

func TestMarketSessionInstantSaleRealizesAssumedIncome(t *testing.T) {
	// One listing, a buyer every hour: it sells in the listing hour at
	// the initial ask, so realized == assumed income.
	events := []sellEvent{{hour: 0, seller: "alice", remaining: 100}}
	st, err := replayMarket(events, replayCard(), 0.8, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Listed != 1 || st.Sold != 1 || st.Expired != 0 || st.OpenAtEnd != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if math.Abs(st.RealizedFraction-1) > 1e-12 {
		t.Errorf("RealizedFraction = %v, want 1", st.RealizedFraction)
	}
	if st.MeanHoursToSale != 0 {
		t.Errorf("MeanHoursToSale = %v, want 0", st.MeanHoursToSale)
	}
}

func TestMarketSessionNoBuyersEverythingExpires(t *testing.T) {
	events := []sellEvent{
		{hour: 0, seller: "a", remaining: 50},
		{hour: 5, seller: "b", remaining: 30},
	}
	st, err := replayMarket(events, replayCard(), 0.8, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sold != 0 || st.Expired != 2 || st.OpenAtEnd != 0 {
		t.Errorf("stats = %+v, want 2 expired and nothing sold or open", st)
	}
	if st.RealizedFraction != 0 {
		t.Errorf("RealizedFraction = %v, want 0", st.RealizedFraction)
	}
}

func TestMarketSessionDelayedSaleRealizesLess(t *testing.T) {
	// A thin market: the listing waits long enough that the shrinking
	// prorated cap (remaining/4) drops below the flat ask of 0.8 * 5 = 4,
	// so the fill pays the cap and the realized fraction falls below 1.
	events := []sellEvent{{hour: 0, seller: "a", remaining: 20}}
	st, err := replayMarket(events, replayCard(), 0.8, 0.1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if st.Sold != 1 {
		t.Fatalf("Sold = %d (stats %+v)", st.Sold, st)
	}
	if st.MeanHoursToSale <= 4 {
		t.Errorf("MeanHoursToSale = %v, want a wait past the cap crossing at 4 h", st.MeanHoursToSale)
	}
	if st.RealizedFraction >= 1 {
		t.Errorf("RealizedFraction = %v, want < 1 for a delayed sale", st.RealizedFraction)
	}
	if st.RealizedFraction <= 0.5 {
		t.Errorf("RealizedFraction = %v suspiciously low for a short wait", st.RealizedFraction)
	}
}

func TestMarketSessionReplayDeterministic(t *testing.T) {
	events := []sellEvent{
		{hour: 0, seller: "a", remaining: 120},
		{hour: 3, seller: "b", remaining: 80},
		{hour: 9, seller: "c", remaining: 300},
	}
	s1, err := replayMarket(events, replayCard(), 0.8, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := replayMarket(events, replayCard(), 0.8, 0.5, 7)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Errorf("same inputs differ: %+v vs %+v", s1, s2)
	}
}

// TestMarketSessionConservation: every listing ends exactly one way,
// and realized income never exceeds the instant-sale assumption.
func TestMarketSessionConservation(t *testing.T) {
	it := replayCard()
	f := func(raw []uint8, rateSel uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 30 {
			raw = raw[:30]
		}
		events := make([]sellEvent, 0, len(raw))
		for _, b := range raw {
			events = append(events, sellEvent{hour: int(b) % 50, seller: "s", remaining: 10 + int(b)%300})
		}
		st, err := replayMarket(events, it, 0.8, float64(rateSel%30)/10, 7)
		if err != nil {
			return false
		}
		return st.Listed == len(events) &&
			st.Sold+st.Expired+st.OpenAtEnd == st.Listed &&
			st.RealizedFraction >= 0 && st.RealizedFraction <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
