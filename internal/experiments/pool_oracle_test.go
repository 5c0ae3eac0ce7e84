package experiments

// Grid-level differential suite for the worker pool: every driver that
// replays users on per-worker Scratches must return exactly what a
// plain serial loop of full simulate.Run results implies — costs,
// norms, sold counts, Keep-Reserved baselines, market events, market
// session outcomes — with
// matching error text, a deterministic cancelled prefix, spill stores
// that resume at any worker count, and the same engine counters.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// oracleRun is one serial, full-Result engine run for planned user u.
func oracleRun(t *testing.T, u PlannedUser, ec simulate.Config, policy simulate.SellingPolicy) simulate.Result {
	t.Helper()
	res, err := simulate.Run(u.Trace.Demand, u.NewRes, ec, policy)
	if err != nil {
		t.Fatalf("oracle run for %s: %v", u.Trace.User, err)
	}
	return res
}

// oracleKeeps is the Keep-Reserved baseline a loop over simulate.Run
// implies, with idle hours counted from the hourly rows HourRows
// derives from the run.
func oracleKeeps(t *testing.T, plan *CohortPlan, ec simulate.Config) []KeepStat {
	t.Helper()
	out := make([]KeepStat, plan.Len())
	for i, u := range plan.Users() {
		res := oracleRun(t, u, ec, core.KeepReserved{})
		out[i].Total = res.Cost.Total()
		rows, err := simulate.HourRows(u.Trace.Demand, u.NewRes, ec.Instance.PeriodHours, res.Instances)
		if err != nil {
			t.Fatalf("oracle rows for %s: %v", u.Trace.User, err)
		}
		for _, h := range rows {
			out[i].IdleHours += h.ActiveRes - (h.Demand - h.OnDemand)
		}
	}
	return out
}

// oracleNorm is the grid's normalization rule.
func oracleNorm(cost, keep float64) float64 {
	if keep == 0 {
		return 1
	}
	return cost / keep
}

// oracleGrid is the grid a loop over simulate.Run implies.
func oracleGrid(t *testing.T, plan *CohortPlan, cells []Cell) []CellResult {
	t.Helper()
	out := make([]CellResult, len(cells))
	for ci, c := range cells {
		keeps := oracleKeeps(t, plan, c.Engine)
		cell := CellResult{
			Name: c.Name,
			Cost: make([]float64, plan.Len()),
			Norm: make([]float64, plan.Len()),
			Sold: make([]int, plan.Len()),
		}
		for ui, u := range plan.Users() {
			res := oracleRun(t, u, c.Engine, c.Policy)
			cell.Cost[ui] = res.Cost.Total()
			cell.Sold[ui] = res.SoldCount()
			cell.Norm[ui] = oracleNorm(cell.Cost[ui], keeps[ui].Total)
		}
		out[ci] = cell
	}
	return out
}

// oracleCohort is the paper pipeline's per-user outcome built from one
// simulate.Run per (user, policy), Keep-Reserved included.
func oracleCohort(t *testing.T, cfg Config) []UserResult {
	t.Helper()
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	policies, err := buildPolicies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ec := plan.engineConfig()
	out := make([]UserResult, plan.Len())
	for i, u := range plan.Users() {
		ur := UserResult{
			User:        u.Trace.User,
			Group:       workload.Classify(u.Trace),
			Fluctuation: u.Trace.FluctuationRatio(),
			Behavior:    u.Behavior,
			Reserved:    u.Reserved,
			Costs:       make(map[string]float64, len(policies)),
			Normalized:  make(map[string]float64, len(policies)),
			Sold:        make(map[string]int, len(policies)),
		}
		for _, np := range policies {
			res := oracleRun(t, u, ec, np.policy)
			ur.Costs[np.name] = res.Cost.Total()
			ur.Sold[np.name] = res.SoldCount()
		}
		for name, cost := range ur.Costs {
			ur.Normalized[name] = oracleNorm(cost, ur.Costs[PolicyKeep])
		}
		out[i] = ur
	}
	return out
}

// TestPoolCohortEquivalence: the full paper pipeline — baselines, all
// six selling-policy cells, normalization — equals the per-user Run
// loop bit for bit at every worker count, under -race.
func TestPoolCohortEquivalence(t *testing.T) {
	cfg := smallConfig()
	want := oracleCohort(t, cfg)
	for _, par := range parallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			got, err := RunCohort(context.Background(), withParallelism(cfg, par))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Users, want) {
				t.Fatal("pooled cohort differs from the per-user Run loop")
			}
		})
	}
}

// TestPoolGridEquivalence compares RunGrid cell by cell with the Run
// loop, including the cached Keep-Reserved baselines (total and idle
// hours) the grid normalizes against.
func TestPoolGridEquivalence(t *testing.T) {
	cfg := smallConfig()
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleGrid(t, plan, resumeCells(t, cfg, plan))
	for _, par := range parallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			plan.cfg.Parallelism = par
			got, err := plan.RunGrid(context.Background(), resumeCells(t, cfg, plan))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("pooled grid differs from the per-user Run loop")
			}
		})
	}
	keeps, err := plan.KeepStats(context.Background(), plan.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keeps, oracleKeeps(t, plan, plan.engineConfig())) {
		t.Fatal("KeepStats differ from the per-user Run loop (Total or IdleHours)")
	}
}

// TestPoolMarketSessionEquivalence: the sale events feeding the
// one-card market session come out of the pool in cohort order with
// the same hours as a serial Run loop, so the session outcomes match
// the serial events fed through the same session exactly.
func TestPoolMarketSessionEquivalence(t *testing.T) {
	cfg := withParallelism(smallConfig(), runtime.GOMAXPROCS(0))
	rates := []float64{0.05, 0.5}
	got, err := marketSession(cfg, rates)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	policy, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		t.Fatal(err)
	}
	ec := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount}
	var events [][]sellEvent
	for _, u := range plan.Users() {
		var evs []sellEvent
		for _, inst := range oracleRun(t, u, ec, policy).Instances {
			if inst.SoldAt >= 0 {
				evs = append(evs, sellEvent{
					hour:      inst.SoldAt,
					seller:    u.Trace.User,
					remaining: inst.Start + cfg.Instance.PeriodHours - inst.SoldAt,
				})
			}
		}
		events = append(events, evs)
	}
	want, err := arrivalSessions(context.Background(), cfg.Instance, cfg.SellingDiscount, events, rates, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled market session differs from the serial Run loop's events")
	}
}

// oracleMarketScenario is the session a naive serial build implies:
// per card, the cohort synthesized and planned afresh, user i replayed
// through simulate.Run under SellingPolicies[i mod 3], the sales
// stable-sorted by hour, and every hour a scan over every user's
// reservation schedule for buy orders, all through a fresh OrderBook.
func oracleMarketScenario(t *testing.T, sc MarketScenario) []MarketOutcome {
	t.Helper()
	book, err := marketplace.NewOrderBook(sc.Base.MarketFee)
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*CohortPlan, len(sc.Cards))
	events := make([][]sellEvent, len(sc.Cards))
	for ci, card := range sc.Cards {
		cfg := withParallelism(sc.Base, 1)
		cfg.Instance = card
		if plans[ci], err = NewCohortPlan(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		var policies []simulate.SellingPolicy
		for _, mk := range []func(pricing.InstanceType, float64) (core.Threshold, error){core.NewA3T4, core.NewAT2, core.NewAT4} {
			p, err := mk(card, cfg.SellingDiscount)
			if err != nil {
				t.Fatal(err)
			}
			policies = append(policies, p)
		}
		ec := simulate.Config{Instance: card, SellingDiscount: cfg.SellingDiscount}
		for i, u := range plans[ci].Users() {
			for _, inst := range oracleRun(t, u, ec, policies[i%3]).Instances {
				if inst.SoldAt >= 0 {
					events[ci] = append(events[ci], sellEvent{
						hour:      inst.SoldAt,
						seller:    u.Trace.User,
						remaining: inst.Start + card.PeriodHours - inst.SoldAt,
					})
				}
			}
		}
		sort.SliceStable(events[ci], func(i, j int) bool { return events[ci][i].hour < events[ci][j].hour })
	}

	out := make([]MarketOutcome, len(sc.Cards))
	index := make(map[string]int, len(sc.Cards))
	for ci, card := range sc.Cards {
		index[card.Name] = ci
		out[ci].Type = card.Name
	}
	waits := make([]int, len(sc.Cards))
	depths := make([]int, len(sc.Cards))
	assumed := make([]float64, len(sc.Cards))
	for hour := 0; hour < sc.Base.Hours; hour++ {
		if hour > 0 {
			for _, lst := range book.Step().Expired {
				out[index[lst.Instance.Name]].Expired++
			}
		}
		for ci, card := range sc.Cards {
			for _, ev := range events[ci] {
				if ev.hour != hour {
					continue
				}
				if _, err := book.ListDeclining(ev.seller, card, ev.remaining, sc.Base.SellingDiscount); err != nil {
					t.Fatal(err)
				}
				out[ci].Listed++
				assumed[ci] += sc.Base.SellingDiscount * marketplace.ProratedCap(card, ev.remaining) * (1 - sc.Base.MarketFee)
			}
		}
		for ci, card := range sc.Cards {
			o := &out[ci]
			for _, u := range plans[ci].Users() {
				for k := 0; k < u.NewRes[hour]; k++ {
					o.BuyerDemand++
					d := book.Depth(card.Name)
					if d.Open == 0 || d.BestAsk > card.Upfront/float64(card.PeriodHours)*float64(d.BestRemaining) {
						o.FreshBuys++
						continue
					}
					trades, err := book.Buy(u.Trace.User, card.Name, 1)
					if err != nil {
						t.Fatal(err)
					}
					tr := trades[0]
					o.UsedFills++
					o.Sold++
					waits[ci] += tr.Hour - tr.ListedAt
					o.BuyerPaid += tr.PricePaid
					o.SellerProceeds += tr.SellerProceeds
					o.Fees += tr.Fee
				}
			}
		}
		for ci, card := range sc.Cards {
			open := book.Depth(card.Name).Open
			depths[ci] += open
			out[ci].PeakDepth = max(out[ci].PeakDepth, open)
		}
	}
	for ci, card := range sc.Cards {
		o := &out[ci]
		o.OpenAtEnd = book.Depth(card.Name).Open
		if o.Listed > 0 {
			o.SaleProbability = float64(o.Sold) / float64(o.Listed)
		}
		if o.Sold > 0 {
			o.MeanHoursToSale = float64(waits[ci]) / float64(o.Sold)
		}
		if assumed[ci] > 0 {
			o.RealizedFraction = o.SellerProceeds / assumed[ci]
		}
		if o.BuyerDemand > 0 {
			o.FillRate = float64(o.UsedFills) / float64(o.BuyerDemand)
		}
		o.MeanDepth = float64(depths[ci]) / float64(sc.Base.Hours)
	}
	return out
}

// reuseScenario is a session whose cards share plans and refuse to:
// the suite's scenario over d2.xlarge, m4.large (the same period) and
// a three-year c4.large, every card scaled like marketCards. The
// horizon is two one-year periods, so one-year reservations lapse and
// renew inside it and a plan shared across terms would show.
func reuseScenario(t *testing.T, parallelism int) MarketScenario {
	t.Helper()
	sc := marketScenario(t, parallelism)
	cat := pricing.StandardLinuxUSEast()
	var cards []pricing.InstanceType
	for _, name := range []string{"d2.xlarge", "m4.large", "c4.large"} {
		it, err := cat.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if name == "c4.large" {
			if it, err = pricing.ThreeYearTerm(it); err != nil {
				t.Fatal(err)
			}
		}
		it.PeriodHours = int(float64(it.PeriodHours) / 6)
		it.Upfront /= 6
		cards = append(cards, it)
	}
	sc.Cards = cards
	sc.Base.Hours = 2 * cards[0].PeriodHours
	return sc
}

// TestMarketScenarioPoolOracle: the session built in one pass — one
// cohort, each user planned, replayed and its buy orders kept for
// every card in one job on per-worker scratch, plans shared between
// cards that plan alike — equals the naive serial build, which plans
// every card afresh, outcome for outcome, at parallelism 1, 4 and
// NumCPU. Both scenarios share the all-reserved and random plans
// between one-year cards; reuseScenario also refuses to share them
// across terms.
func TestMarketScenarioPoolOracle(t *testing.T) {
	reuse := reuseScenario(t, 1)
	d2x, m4, c4 := reuse.Cards[0], reuse.Cards[1], reuse.Cards[2]
	if !purchasing.SamePlan("all-reserved", d2x, m4) || !purchasing.SamePlan("random", d2x, m4) {
		t.Fatal("reuse scenario's cards do not share plans as the test assumes")
	}
	for _, b := range purchasing.Behaviors {
		if purchasing.SamePlan(b, d2x, c4) {
			t.Fatalf("%s shares a plan across terms", b)
		}
	}
	check := func(t *testing.T, scenario func(*testing.T, int) MarketScenario) {
		want := oracleMarketScenario(t, scenario(t, 1))
		var traded bool
		for _, o := range want {
			traded = traded || o.Sold > 0
		}
		if !traded {
			t.Fatal("oracle session traded nothing; the comparison is vacuous")
		}
		for _, par := range []int{1, 4, runtime.NumCPU()} {
			t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
				got, err := RunMarketScenario(context.Background(), scenario(t, par))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Outcomes, want) {
					t.Fatalf("session differs from the serial oracle:\n got %+v\nwant %+v", got.Outcomes, want)
				}
			})
		}
	}
	check(t, marketScenario)
	t.Run("reuse", func(t *testing.T) { check(t, reuseScenario) })
}

// TestPoolErrorParity: an engine rejection surfaces as the per-user
// engine's exact error text, for the lowest failing user, behind the
// grid's cell and user prefix or the baseline's user prefix.
func TestPoolErrorParity(t *testing.T) {
	cfg := withParallelism(smallConfig(), runtime.GOMAXPROCS(0))
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := plan.Users()[0]

	cells := []Cell{{Name: "poison", Policy: nil, Engine: plan.engineConfig()}}
	_, runErr := simulate.Run(first.Trace.Demand, first.NewRes, plan.engineConfig(), nil)
	_, gridErr := plan.RunGrid(context.Background(), cells)
	if runErr == nil || gridErr == nil {
		t.Fatalf("nil-policy cell accepted: Run %v, grid %v", runErr, gridErr)
	}
	if want := fmt.Sprintf("experiments: cell poison: user %s: %v", first.Trace.User, runErr); gridErr.Error() != want {
		t.Fatalf("grid error text diverges:\n  got:  %v\n  want: %s", gridErr, want)
	}

	// An invalid price card: it misses the per-card baseline cache (the
	// cache is keyed on the instance) and fails engine validation.
	bad := plan.engineConfig()
	bad.Instance.PeriodHours = 0
	_, runErr = simulate.Run(first.Trace.Demand, first.NewRes, bad, core.KeepReserved{})
	_, keepErr := plan.KeepStats(context.Background(), bad)
	if runErr == nil || keepErr == nil {
		t.Fatalf("bad engine config accepted: Run %v, baseline %v", runErr, keepErr)
	}
	if want := fmt.Sprintf("experiments: user %s: %v", first.Trace.User, runErr); keepErr.Error() != want {
		t.Fatalf("baseline error text diverges:\n  got:  %v\n  want: %s", keepErr, want)
	}
}

// TestPoolGridCancellation: on a single worker, cancelling right after
// the cancelAfter-th cell's last user drains the in-flight run,
// discards the cell it opened, and reports exactly the first
// cancelAfter cells through *CancelError, each equal to the Run loop.
func TestPoolGridCancellation(t *testing.T) {
	cfg := withParallelism(smallConfig(), 1)
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := resumeCells(t, cfg, plan)
	want := oracleGrid(t, plan, cells)
	warmBaseline(t, plan)
	users := int64(plan.Len())

	for _, cancelAfter := range []int64{0, 1, 2} {
		t.Run(fmt.Sprintf("cancelAfter=%d", cancelAfter), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			orig := simulateResume
			simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				if calls.Add(1) > cancelAfter*users {
					cancel()
				}
				return orig(s, u, pt, ec, pol)
			}
			defer func() { simulateResume = orig }()

			got, err := plan.RunGrid(ctx, cells)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled in chain", err)
			}
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *CancelError", err)
			}
			if ce.Total != 3 {
				t.Errorf("CancelError.Total = %d, want 3", ce.Total)
			}
			if int64(len(got)) != cancelAfter || len(ce.Completed) != len(got) {
				t.Fatalf("%d results for %d completed names, want %d of each", len(got), len(ce.Completed), cancelAfter)
			}
			for i, cell := range got {
				if cell.Name != ce.Completed[i] || cell.Name != cells[i].Name {
					t.Errorf("result %d named %q, CancelError says %q, want %q", i, cell.Name, ce.Completed[i], cells[i].Name)
				}
				if !reflect.DeepEqual(cell, want[i]) {
					t.Fatalf("completed cell %q differs from the per-user Run loop", cell.Name)
				}
			}
		})
	}
}

// TestPoolSpillInterop: Parallelism is execution plumbing, never part
// of the grid's identity, so a store spilled one user at a time
// ("per-user") resumes on a four-worker pool ("batch") and back again
// without recomputing a single cell.
func TestPoolSpillInterop(t *testing.T) {
	cfg := smallConfig()
	for _, dir := range []struct {
		name           string
		writer, reader int
	}{
		{name: "per-user-to-batch", writer: 1, reader: 4},
		{name: "batch-to-per-user", writer: 4, reader: 1},
	} {
		t.Run(dir.name, func(t *testing.T) {
			spillDir := t.TempDir()
			wCfg := withParallelism(cfg, dir.writer)
			wCfg.SpillDir = spillDir
			wPlan, err := NewCohortPlan(context.Background(), wCfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := wPlan.RunGrid(context.Background(), resumeCells(t, cfg, wPlan))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, oracleGrid(t, wPlan, resumeCells(t, cfg, wPlan))) {
				t.Fatal("spilled grid differs from the per-user Run loop")
			}

			rCfg := withParallelism(cfg, dir.reader)
			rCfg.SpillDir = spillDir
			rCfg.Resume = true
			rPlan, err := NewCohortPlan(context.Background(), rCfg)
			if err != nil {
				t.Fatal(err)
			}
			// Any engine invocation, trunk or cell run, would mean a cell
			// failed to resume: a grid resumed whole runs no trunk.
			trunks, resumes := countEngineRuns(t)
			got, err := rPlan.RunGrid(context.Background(), resumeCells(t, cfg, rPlan))
			if err != nil {
				t.Fatal(err)
			}
			if n := trunks.Load() + resumes.Load(); n != 0 {
				t.Fatalf("resume at another worker count recomputed: %d engine calls, want 0", n)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("resumed grid differs from the run that spilled it")
			}
		})
	}
}

// TestPoolObsParity pins the counter contract: a planned grid books
// one pool job per user for planning, one per user for the trunk (the
// baseline) and one per (cell, user) pair, marks every cell done, and
// books engine counters equal to what the same runs book through
// simulate.Run, less the hours each resumed run skips.
func TestPoolObsParity(t *testing.T) {
	cfg := withParallelism(smallConfig(), runtime.GOMAXPROCS(0))
	m := obs.New(obs.SystemClock)
	ctx := obs.WithMetrics(context.Background(), m)
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := resumeCells(t, cfg, plan)
	if _, err := plan.RunGrid(ctx, cells); err != nil {
		t.Fatal(err)
	}
	got := m.Snapshot()

	// A resumed run replays only the hours from its fork on, so the
	// pool books the Run loop's hours less every pair's fork hour.
	var want obs.EngineMetrics
	var skipped int64
	for _, u := range plan.Users() {
		ec := plan.engineConfig()
		ec.Metrics = &want
		oracleRun(t, u, ec, core.KeepReserved{})
		for _, c := range cells {
			ec := c.Engine
			ec.Metrics = &want
			oracleRun(t, u, ec, c.Policy)
			age := simulate.ForkAge(c.Policy, c.Engine.Instance.PeriodHours)
			skipped += int64(simulate.ForkHour(age, u.firstRes, len(u.Trace.Demand)))
		}
	}
	jobs := int64(plan.Len() * (2 + len(cells)))
	if got.JobsTotal != jobs || got.JobsDone != jobs {
		t.Errorf("jobs total/done = %d/%d, want %d/%d", got.JobsTotal, got.JobsDone, jobs, jobs)
	}
	if got.CellsTotal != int64(len(cells)) || got.CellsDone != int64(len(cells)) {
		t.Errorf("cells total/done = %d/%d, want %d/%d", got.CellsTotal, got.CellsDone, len(cells), len(cells))
	}
	if got.EngineRuns != want.Runs.Value() || got.EngineHours != want.Hours.Value()-skipped ||
		got.EngineInstances != want.Instances.Value() || got.EngineSold != want.Sold.Value() {
		t.Errorf("engine counters diverge: pool %d runs/%d hours/%d instances/%d sold, Run loop %d/%d-%d/%d/%d",
			got.EngineRuns, got.EngineHours, got.EngineInstances, got.EngineSold,
			want.Runs.Value(), want.Hours.Value(), skipped, want.Instances.Value(), want.Sold.Value())
	}
}

// TestPoolAtScaleConfig runs the full pipeline comparison once at
// TestScaleConfig — the shape integration tests use — guarding against
// divergence that only appears past the unit-test cohort size. Skipped
// in -short mode.
func TestPoolAtScaleConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("scale comparison skipped in -short mode")
	}
	cfg := TestScaleConfig()
	cfg.Parallelism = runtime.GOMAXPROCS(0)
	got, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Users, oracleCohort(t, cfg)) {
		t.Fatal("pooled pipeline diverges from the per-user Run loop at test scale")
	}
}
