package experiments

// Grid-level differential suite for the worker pool: every driver that
// replays users on per-worker Scratches must return exactly what a
// plain serial loop of full simulate.Run results implies — costs,
// norms, sold counts, Keep-Reserved baselines, market events — with
// matching error text, a deterministic cancelled prefix, spill stores
// that resume at any worker count, and the same engine counters. The
// Batch test names date from when this suite pinned the since-deleted
// batch engine to the pool; the pool is now checked against the
// per-user Run loop directly.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/obs"
	"rimarket/internal/simulate"
	"rimarket/internal/trade"
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
// implies, with idle hours counted from the hourly records.
func oracleKeeps(t *testing.T, plan *CohortPlan, ec simulate.Config) []KeepStat {
	t.Helper()
	out := make([]KeepStat, plan.Len())
	for i, u := range plan.Users() {
		res := oracleRun(t, u, ec, core.KeepReserved{})
		out[i].Total = res.Cost.Total()
		for _, h := range res.Hours {
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

// TestBatchCohortEquivalence: the full paper pipeline — baselines, all
// six selling-policy cells, normalization — equals the per-user Run
// loop bit for bit at every worker count, under -race.
func TestBatchCohortEquivalence(t *testing.T) {
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

// TestBatchGridEquivalence compares RunGrid cell by cell with the Run
// loop, including the cached Keep-Reserved baselines (total and idle
// hours) the grid normalizes against.
func TestBatchGridEquivalence(t *testing.T) {
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

// TestBatchMarketSessionEquivalence: the sale events feeding market
// replay come out of the pool in cohort order with the same hours as a
// serial Run loop, so the session statistics match exactly.
func TestBatchMarketSessionEquivalence(t *testing.T) {
	cfg := withParallelism(smallConfig(), runtime.GOMAXPROCS(0))
	rates := []float64{0.05, 0.5}
	got, err := MarketSession(context.Background(), cfg, rates)
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
	var events []trade.SellEvent
	for _, u := range plan.Users() {
		for _, inst := range oracleRun(t, u, ec, policy).Instances {
			if inst.SoldAt >= 0 {
				events = append(events, trade.SellEvent{
					Hour:           inst.SoldAt,
					Seller:         u.Trace.User,
					Instance:       cfg.Instance,
					RemainingHours: inst.Start + cfg.Instance.PeriodHours - inst.SoldAt,
				})
			}
		}
	}
	want := make([]MarketPoint, 0, len(rates))
	for _, rate := range rates {
		stats, err := trade.Run(events, trade.Config{
			ListingDiscount: cfg.SellingDiscount,
			MarketFee:       0.12,
			BuyerRate:       rate,
			Seed:            cfg.Seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, MarketPoint{BuyerRate: rate, Stats: stats})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pooled market session differs from the serial Run loop's events")
	}
}

// TestBatchErrorParity: an engine rejection surfaces as the per-user
// engine's exact error text, for the lowest failing user, behind the
// grid's cell and user prefix or the baseline's user prefix.
func TestBatchErrorParity(t *testing.T) {
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

// TestBatchGridCancellation: on a single worker, cancelling right after
// the cancelAfter-th cell's last user drains the in-flight run,
// discards the cell it opened, and reports exactly the first
// cancelAfter cells through *CancelError, each equal to the Run loop.
func TestBatchGridCancellation(t *testing.T) {
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
			orig := simulateTotals
			simulateTotals = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				if calls.Add(1) > cancelAfter*users {
					cancel()
				}
				return orig(s, demand, newRes, ec, pol)
			}
			defer func() { simulateTotals = orig }()

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

// TestBatchSpillInterop: Parallelism is execution plumbing, never part
// of the grid's identity, so a store spilled one user at a time
// ("per-user") resumes on a four-worker pool ("batch") and back again
// without recomputing a single cell.
func TestBatchSpillInterop(t *testing.T) {
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
			// Baselines are per-plan caches, never spilled; warm them so
			// the instrumented window sees only cell work.
			warmBaseline(t, rPlan)
			// Any engine invocation would mean a cell failed to resume.
			orig := simulateTotals
			var engineCalls atomic.Int64
			simulateTotals = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
				engineCalls.Add(1)
				return orig(s, demand, newRes, ec, pol)
			}
			defer func() { simulateTotals = orig }()

			got, err := rPlan.RunGrid(context.Background(), resumeCells(t, cfg, rPlan))
			if err != nil {
				t.Fatal(err)
			}
			if n := engineCalls.Load(); n != 0 {
				t.Fatalf("resume at another worker count recomputed: %d engine calls, want 0", n)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("resumed grid differs from the run that spilled it")
			}
		})
	}
}

// TestBatchObsParity pins the counter contract: a planned grid books
// one pool job per user for planning, one per user for the baseline
// and one per (cell, user) pair, marks every cell done, and books
// engine counters equal to what the same runs book through
// simulate.Run.
func TestBatchObsParity(t *testing.T) {
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

	var want obs.EngineMetrics
	for _, u := range plan.Users() {
		ec := plan.engineConfig()
		ec.Metrics = &want
		oracleRun(t, u, ec, core.KeepReserved{})
		for _, c := range cells {
			ec := c.Engine
			ec.Metrics = &want
			oracleRun(t, u, ec, c.Policy)
		}
	}
	jobs := int64(plan.Len() * (2 + len(cells)))
	if got.JobsTotal != jobs || got.JobsDone != jobs {
		t.Errorf("jobs total/done = %d/%d, want %d/%d", got.JobsTotal, got.JobsDone, jobs, jobs)
	}
	if got.CellsTotal != int64(len(cells)) || got.CellsDone != int64(len(cells)) {
		t.Errorf("cells total/done = %d/%d, want %d/%d", got.CellsTotal, got.CellsDone, len(cells), len(cells))
	}
	if got.EngineRuns != want.Runs.Value() || got.EngineHours != want.Hours.Value() ||
		got.EngineInstances != want.Instances.Value() || got.EngineSold != want.Sold.Value() {
		t.Errorf("engine counters diverge: pool %d runs/%d hours/%d instances/%d sold, Run loop %d/%d/%d/%d",
			got.EngineRuns, got.EngineHours, got.EngineInstances, got.EngineSold,
			want.Runs.Value(), want.Hours.Value(), want.Instances.Value(), want.Sold.Value())
	}
}

// TestBatchAtScaleConfig runs the full pipeline comparison once at
// TestScaleConfig — the shape integration tests use — guarding against
// divergence that only appears past the unit-test cohort size. Skipped
// in -short mode.
func TestBatchAtScaleConfig(t *testing.T) {
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
