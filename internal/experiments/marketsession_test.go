package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// marketCards returns the session's traded cards at the test scale:
// the paper's d2.xlarge plus a cheap general-purpose type, both with
// the year scaled down the way TestScaleConfig scales its card.
func marketCards(t *testing.T) []pricing.InstanceType {
	t.Helper()
	scale := 6.0
	out := make([]pricing.InstanceType, 0, 2)
	for _, name := range []string{"d2.xlarge", "m4.large"} {
		it, err := pricing.StandardLinuxUSEast().Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		it.PeriodHours = int(float64(it.PeriodHours) / scale)
		it.Upfront /= scale
		out = append(out, it)
	}
	return out
}

// marketScenario is the suite's shared scenario at the given execution
// settings; results must not depend on any of them.
func marketScenario(t *testing.T, parallelism int) MarketScenario {
	cfg := TestScaleConfig()
	cfg.PerGroup = 8
	cfg.MarketFee = 0.12
	cfg.Parallelism = parallelism
	return MarketScenario{Base: cfg, Cards: marketCards(t)}
}

func TestMarketScenarioValidate(t *testing.T) {
	sc := marketScenario(t, 0)
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (MarketScenario{Base: sc.Base}).Validate(); err == nil {
		t.Error("no cards accepted")
	}
	dup := MarketScenario{Base: sc.Base, Cards: []pricing.InstanceType{sc.Cards[0], sc.Cards[0]}}
	if err := dup.Validate(); err == nil {
		t.Error("duplicate card accepted")
	}
	bad := sc
	bad.Base.PerGroup = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid base config accepted")
	}
}

// TestMarketScenarioEmergentStats pins the tentpole's acceptance
// property: the session produces a per-type sale-probability and
// time-to-sale table from matched trades, with every derived quantity
// consistent with the raw counts and money conserved bit-exactly.
func TestMarketScenarioEmergentStats(t *testing.T) {
	sc := marketScenario(t, 0)
	res, err := RunMarketScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outcomes) != len(sc.Cards) {
		t.Fatalf("%d outcomes for %d cards", len(res.Outcomes), len(sc.Cards))
	}
	if res.Horizon != sc.Base.Hours {
		t.Errorf("horizon %d, want %d", res.Horizon, sc.Base.Hours)
	}
	var listed, sold int
	var paid, split float64
	for i, o := range res.Outcomes {
		if o.Type != sc.Cards[i].Name {
			t.Errorf("outcome %d is %q, want card order %q", i, o.Type, sc.Cards[i].Name)
		}
		if o.Listed != o.Sold+o.Expired+o.OpenAtEnd {
			t.Errorf("%s: listed %d != sold %d + expired %d + open %d", o.Type, o.Listed, o.Sold, o.Expired, o.OpenAtEnd)
		}
		if o.SaleProbability < 0 || o.SaleProbability > 1 {
			t.Errorf("%s: sale probability %v outside [0,1]", o.Type, o.SaleProbability)
		}
		if o.Sold != o.UsedFills {
			t.Errorf("%s: sold %d != used fills %d (single-type book: every fill is a sale)", o.Type, o.Sold, o.UsedFills)
		}
		if o.BuyerDemand != o.UsedFills+o.FreshBuys {
			t.Errorf("%s: demand %d != used %d + fresh %d", o.Type, o.BuyerDemand, o.UsedFills, o.FreshBuys)
		}
		// Bit-exact conservation is per trade (asserted inside the
		// session); the independently accumulated sums agree to float
		// summation error.
		if diff := o.BuyerPaid - (o.SellerProceeds + o.Fees); diff > 1e-6 || diff < -1e-6 {
			t.Errorf("%s: paid %v != proceeds %v + fees %v", o.Type, o.BuyerPaid, o.SellerProceeds, o.Fees)
		}
		if o.Sold > 0 && o.MeanHoursToSale < 0 {
			t.Errorf("%s: negative mean wait %v", o.Type, o.MeanHoursToSale)
		}
		// Sellers never net more than Eq. (1)'s instant sale, and a card
		// realizes nothing exactly when none of its listings sold.
		if o.RealizedFraction < 0 || o.RealizedFraction > 1+1e-9 {
			t.Errorf("%s: realized fraction %v outside [0, 1]", o.Type, o.RealizedFraction)
		}
		if (o.RealizedFraction == 0) != (o.Sold == 0) {
			t.Errorf("%s: realized fraction %v with %d sold", o.Type, o.RealizedFraction, o.Sold)
		}
		listed += o.Listed
		sold += o.Sold
		paid += o.BuyerPaid
		split += o.SellerProceeds + o.Fees
	}
	// The seeded cohort must actually trade: an empty table would make
	// the emergent-alpha claim vacuous.
	if listed == 0 || sold == 0 {
		t.Fatalf("degenerate session: %d listed, %d sold", listed, sold)
	}
	if diff := paid - res.BuyerPaid; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("session paid total %v != per-type sum %v", res.BuyerPaid, paid)
	}
	if diff := split - (res.SellerProceeds + res.Fees); diff > 1e-6 || diff < -1e-6 {
		t.Errorf("session proceeds+fees %v != per-type sum %v", res.SellerProceeds+res.Fees, split)
	}
	out := RenderMarketOutcomes(res)
	for _, card := range sc.Cards {
		if !strings.Contains(out, card.Name) {
			t.Errorf("rendered table missing %s:\n%s", card.Name, out)
		}
	}
}

// TestMarketScenarioObsCounters checks the session feeds the obs
// market section, that the counters agree with the outcomes, and that
// the spans and engine-run count match the session's one pass.
func TestMarketScenarioObsCounters(t *testing.T) {
	sc := marketScenario(t, 0)
	m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
	res, err := RunMarketScenario(obs.WithMetrics(context.Background(), m), sc)
	if err != nil {
		t.Fatal(err)
	}
	snap := m.Snapshot()
	if snap.Market == nil {
		t.Fatal("snapshot has no market section after a market session")
	}
	var listed, sold, expired, demand, fresh int64
	for _, o := range res.Outcomes {
		listed += int64(o.Listed)
		sold += int64(o.Sold)
		expired += int64(o.Expired)
		demand += int64(o.BuyerDemand)
		fresh += int64(o.FreshBuys)
	}
	mk := snap.Market
	if mk.Listings != listed || mk.Trades != sold || mk.Expiries != expired ||
		mk.BuyOrders != demand || mk.FreshBuys != fresh {
		t.Errorf("market counters (%d, %d, %d, %d, %d) != outcomes (%d, %d, %d, %d, %d)",
			mk.Listings, mk.Trades, mk.Expiries, mk.BuyOrders, mk.FreshBuys,
			listed, sold, expired, demand, fresh)
	}
	if sold > 0 && mk.HoursToSale < 0 {
		t.Errorf("hours-to-sale total %d negative", mk.HoursToSale)
	}
	// Spans split the pass: one plan fan-out over every card, with the
	// cohort's synthesis inside it, then one hour loop.
	spans := map[string]int64{}
	for _, sp := range snap.Spans {
		spans[sp.Name] = sp.Count
	}
	cards := int64(len(sc.Cards))
	for name, want := range map[string]int64{"market-session": 1, "synth": 1, "plan": 1, "sell_events": 0, "session_loop": 1} {
		if spans[name] != want {
			t.Errorf("span %q recorded %d times, want %d (spans %+v)", name, spans[name], want, snap.Spans)
		}
	}
	if snap.EngineRuns != cards*int64(3*sc.Base.PerGroup) {
		t.Errorf("engine runs %d, want one replay per seller per card (%d)", snap.EngineRuns, cards*int64(3*sc.Base.PerGroup))
	}
	// Every sell decision the replays make reaches the book, though
	// each replay stops at its plan's last checkpoint.
	if snap.EngineSold != listed {
		t.Errorf("engine sold %d, book listed %d", snap.EngineSold, listed)
	}
	if full := cards * int64(3*sc.Base.PerGroup) * int64(sc.Base.Hours); snap.EngineHours >= full {
		t.Errorf("engine hours %d, want fewer than full-horizon replays' %d", snap.EngineHours, full)
	}
}

// TestMarketScenarioReplayError: a seller replay that fails aborts the
// session with the lowest failing user's error, wrapped with its name,
// at any parallelism. Each user runs through every card in one job, so
// a user failing only on a later card outranks a higher-index user
// failing on an earlier one.
func TestMarketScenarioReplayError(t *testing.T) {
	sc := marketScenario(t, 1)
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: sc.Base.PerGroup, Hours: sc.Base.Hours, Seed: sc.Base.Seed})
	if err != nil {
		t.Fatal(err)
	}
	injected := errors.New("injected engine failure")
	// user reports whether demand is user u's: a seller replay runs a
	// prefix of the trace, up to the plan's last checkpoint.
	user := func(u int, demand []int) bool {
		full := traces[u].Demand
		return len(demand) > 0 && slices.Equal(demand, full[:len(demand)])
	}
	for _, c := range []struct {
		name  string
		fails func(demand []int, card string) bool
		want  int
	}{
		{"every card", func(demand []int, _ string) bool { return user(5, demand) || user(9, demand) }, 5},
		{"later card, lower user", func(demand []int, card string) bool {
			return user(9, demand) && card == sc.Cards[0].Name || user(5, demand) && card == sc.Cards[1].Name
		}, 5},
	} {
		t.Run(c.name, func(t *testing.T) {
			orig := simulateTotals
			defer func() { simulateTotals = orig }()
			var fired atomic.Int64
			simulateTotals = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				if c.fails(demand, ec.Instance.Name) {
					fired.Add(1)
					return simulate.Totals{}, injected
				}
				return orig(s, demand, newRes, ec, pol)
			}
			want := fmt.Sprintf("experiments: user %s: %v", traces[c.want].User, injected)
			for _, par := range []int{1, 4, runtime.NumCPU()} {
				fired.Store(0)
				_, err := RunMarketScenario(context.Background(), marketScenario(t, par))
				if fired.Load() == 0 {
					t.Errorf("parallelism=%d: the injected failure never fired", par)
				}
				if !errors.Is(err, injected) || err.Error() != want {
					t.Errorf("parallelism=%d: err = %v, want %q", par, err, want)
				}
			}
		})
	}
}

// TestMarketScenarioDifferential is the determinism gate: the rendered
// session must be byte-identical at every parallelism, with or without
// metrics attached.
func TestMarketScenarioDifferential(t *testing.T) {
	want := ""
	for _, par := range []int{1, 4, runtime.NumCPU()} {
		for _, observed := range []bool{false, true} {
			ctx := context.Background()
			if observed {
				m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
				ctx = obs.WithMetrics(ctx, m)
			}
			res, err := RunMarketScenario(ctx, marketScenario(t, par))
			if err != nil {
				t.Fatalf("parallelism=%d observed=%v: %v", par, observed, err)
			}
			got := RenderMarketOutcomes(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("parallelism=%d observed=%v diverged:\n--- got ---\n%s--- want ---\n%s",
					par, observed, got, want)
			}
		}
	}
}

// TestMarketScenarioSpillInterop runs a spilled-and-resumed cohort
// grid and the market session over the same configuration: the spill
// store must restore the grid cells and the session must render
// identically whether or not a grid spill ran beside it.
func TestMarketScenarioSpillInterop(t *testing.T) {
	sc := marketScenario(t, 2)
	plain, err := RunMarketScenario(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := sc.Base
	cfg.Instance = sc.Cards[0]
	cfg.SpillDir = dir

	// First pass computes and spills the cohort grid.
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := plan.Cohort(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Second pass resumes from the spill store and also runs the market
	// session on a scenario sharing the spill configuration.
	cfg.Resume = true
	m := obs.New(obs.FakeClock(time.Unix(0, 0).UTC(), time.Microsecond))
	ctx := obs.WithMetrics(context.Background(), m)
	plan2, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := plan2.Cohort(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Snapshot().CellsResumed; got == 0 {
		t.Error("resume pass restored no cells from the spill store")
	}
	for i := range first.Users {
		for name, cost := range first.Users[i].Costs {
			if second.Users[i].Costs[name] != cost {
				t.Fatalf("user %d policy %s: resumed cost %v != computed %v",
					i, name, second.Users[i].Costs[name], cost)
			}
		}
	}

	spilled := sc
	spilled.Base = cfg
	res, err := RunMarketScenario(ctx, spilled)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := RenderMarketOutcomes(res), RenderMarketOutcomes(plain); got != want {
		t.Errorf("session beside a spilled grid diverged:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
