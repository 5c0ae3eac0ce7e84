package experiments

// Grid-level differential suite for Config.Batch: every driver must
// return results bit-identical to the per-user engine — costs, norms,
// sold counts, Keep-Reserved baselines, market events — with matching
// error text, cancellation semantics, and spill stores that
// interchange between modes (Batch is execution plumbing, never part
// of the grid's identity).

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"rimarket/internal/obs"
	"rimarket/internal/simulate"
)

func withBatch(cfg Config) Config {
	cfg.Batch = true
	return cfg
}

// batchPlans builds a per-user and a batch plan over the same cohort.
func batchPlans(t *testing.T, cfg Config) (*CohortPlan, *CohortPlan) {
	t.Helper()
	ref, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewCohortPlan(context.Background(), withBatch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return ref, bat
}

// TestBatchCohortEquivalence: the full paper pipeline — baselines, all
// six selling-policy cells, normalization — is bit-identical under the
// batch engine at every worker count, under -race.
func TestBatchCohortEquivalence(t *testing.T) {
	cfg := smallConfig()
	ref, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			got, err := RunCohort(context.Background(), withBatch(withParallelism(cfg, par)))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Users, ref.Users) {
				t.Fatal("batch cohort differs from per-user cohort")
			}
		})
	}
}

// TestBatchGridEquivalence compares RunGrid cell by cell, including
// the cached Keep-Reserved baselines both grids normalize against.
func TestBatchGridEquivalence(t *testing.T) {
	cfg := smallConfig()
	refPlan, batPlan := batchPlans(t, cfg)
	ref, err := refPlan.RunGrid(context.Background(), resumeCells(t, cfg, refPlan))
	if err != nil {
		t.Fatal(err)
	}
	refKeeps, err := refPlan.KeepStats(context.Background(), refPlan.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range parallelisms() {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			batPlan.cfg.Parallelism = par
			got, err := batPlan.RunGrid(context.Background(), resumeCells(t, cfg, batPlan))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("batch grid differs from per-user grid")
			}
		})
	}
	batKeeps, err := batPlan.KeepStats(context.Background(), batPlan.engineConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batKeeps, refKeeps) {
		t.Fatal("batch KeepStats differ from per-user KeepStats (Total or IdleHours)")
	}
}

// TestBatchMarketSessionEquivalence: the sale events feeding market
// replay come out of the batch engine in the same order with the same
// hours, so the session statistics match exactly.
func TestBatchMarketSessionEquivalence(t *testing.T) {
	cfg := smallConfig()
	rates := []float64{0.05, 0.5}
	ref, err := MarketSession(context.Background(), cfg, rates)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MarketSession(context.Background(), withBatch(cfg), rates)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatal("batch market session differs from per-user session")
	}
}

// TestBatchErrorParity: the batch engine's first-invalid-user error is
// rewritten into the exact per-user error text, for both the grid (cell
// prefix) and the baseline (no prefix) call sites.
func TestBatchErrorParity(t *testing.T) {
	cfg := smallConfig()
	refPlan, batPlan := batchPlans(t, cfg)

	cells := []Cell{{Name: "poison", Policy: nil, Engine: refPlan.engineConfig()}}
	_, refErr := refPlan.RunGrid(context.Background(), cells)
	_, batErr := batPlan.RunGrid(context.Background(), cells)
	if refErr == nil || batErr == nil {
		t.Fatalf("nil-policy cell accepted: per-user %v, batch %v", refErr, batErr)
	}
	if refErr.Error() != batErr.Error() {
		t.Fatalf("grid error text diverges:\n  per-user: %v\n  batch:    %v", refErr, batErr)
	}

	// An invalid price card: it misses the per-card baseline cache (the
	// cache is keyed on the instance) and fails engine validation.
	bad := refPlan.engineConfig()
	bad.Instance.PeriodHours = 0
	_, refErr = refPlan.KeepStats(context.Background(), bad)
	_, batErr = batPlan.KeepStats(context.Background(), bad)
	if refErr == nil || batErr == nil {
		t.Fatalf("bad engine config accepted: per-user %v, batch %v", refErr, batErr)
	}
	if refErr.Error() != batErr.Error() {
		t.Fatalf("baseline error text diverges:\n  per-user: %v\n  batch:    %v", refErr, batErr)
	}
}

// TestBatchGridCancellation: cancelling a batch grid mid-flight drains
// the in-flight cell, discards it wholesale, and reports the completed
// prefix through the same *CancelError contract as the per-user pool.
func TestBatchGridCancellation(t *testing.T) {
	cfg := smallConfig()
	refPlan, batPlan := batchPlans(t, cfg)
	ref, err := refPlan.RunGrid(context.Background(), resumeCells(t, cfg, refPlan))
	if err != nil {
		t.Fatal(err)
	}
	refByName := make(map[string]CellResult, len(ref))
	for _, cell := range ref {
		refByName[cell.Name] = cell
	}
	warmBaseline(t, batPlan)

	for _, cancelAfter := range []int64{0, 1, 2} {
		t.Run(fmt.Sprintf("cancelAfter=%d", cancelAfter), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var calls atomic.Int64
			orig := simulateRunBatchTotals
			simulateRunBatchTotals = func(ctx context.Context, users []simulate.BatchUser, ec simulate.Config, pol simulate.SellingPolicy, opts simulate.BatchOptions) ([]simulate.BatchTotal, error) {
				if calls.Add(1) > cancelAfter {
					cancel()
				}
				return orig(ctx, users, ec, pol, opts)
			}
			defer func() { simulateRunBatchTotals = orig }()

			got, err := batPlan.RunGrid(ctx, resumeCells(t, cfg, batPlan))
			if err == nil {
				t.Skip("cancellation raced completion; nothing to assert")
			}
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
			if len(got) != len(ce.Completed) {
				t.Fatalf("%d results for %d completed names", len(got), len(ce.Completed))
			}
			for i, cell := range got {
				if cell.Name != ce.Completed[i] {
					t.Errorf("result %d named %q, CancelError says %q", i, cell.Name, ce.Completed[i])
				}
				if !reflect.DeepEqual(cell, refByName[cell.Name]) {
					t.Fatalf("completed cell %q differs from uncancelled per-user run", cell.Name)
				}
			}
		})
	}
}

// TestBatchSpillInterop: Batch is excluded from the grid's config hash,
// so a store spilled by one engine resumes under the other — in both
// directions — without recomputing a single cell.
func TestBatchSpillInterop(t *testing.T) {
	cfg := smallConfig()
	for _, dir := range []struct {
		name           string
		writer, reader bool
	}{
		{name: "per-user-to-batch", writer: false, reader: true},
		{name: "batch-to-per-user", writer: true, reader: false},
	} {
		t.Run(dir.name, func(t *testing.T) {
			spillDir := t.TempDir()
			wCfg := cfg
			wCfg.Batch = dir.writer
			wCfg.SpillDir = spillDir
			wPlan, err := NewCohortPlan(context.Background(), wCfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := wPlan.RunGrid(context.Background(), resumeCells(t, cfg, wPlan))
			if err != nil {
				t.Fatal(err)
			}

			rCfg := cfg
			rCfg.Batch = dir.reader
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
			origRun, origBatch := simulateTotals, simulateRunBatchTotals
			var engineCalls atomic.Int64
			simulateTotals = func(s *simulate.Scratch, demand, newRes []int, ec simulate.Config, pol simulate.SellingPolicy) (simulate.BatchTotal, error) {
				engineCalls.Add(1)
				return origRun(s, demand, newRes, ec, pol)
			}
			simulateRunBatchTotals = func(ctx context.Context, users []simulate.BatchUser, ec simulate.Config, pol simulate.SellingPolicy, opts simulate.BatchOptions) ([]simulate.BatchTotal, error) {
				engineCalls.Add(1)
				return origBatch(ctx, users, ec, pol, opts)
			}
			defer func() { simulateTotals, simulateRunBatchTotals = origRun, origBatch }()

			got, err := rPlan.RunGrid(context.Background(), resumeCells(t, cfg, rPlan))
			if err != nil {
				t.Fatal(err)
			}
			if n := engineCalls.Load(); n != 0 {
				t.Fatalf("resume across engine modes recomputed: %d engine calls, want 0", n)
			}
			if !reflect.DeepEqual(got, ref) {
				t.Fatal("resumed grid differs from the run that spilled it")
			}
		})
	}
}

// TestBatchObsParity pins the counter contract: a batch grid books the
// same job and cell totals as the per-user pool (one job per (cell,
// user) pair), plus its own batch-call counters, and the engine's
// per-run counters mean the same thing in both modes.
func TestBatchObsParity(t *testing.T) {
	cfg := smallConfig()
	snapshot := func(batch bool) *obs.Snapshot {
		c := cfg
		c.Batch = batch
		m := obs.New(obs.SystemClock)
		ctx := obs.WithMetrics(context.Background(), m)
		plan, err := NewCohortPlan(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := plan.RunGrid(ctx, resumeCells(t, cfg, plan)); err != nil {
			t.Fatal(err)
		}
		return m.Snapshot()
	}
	ref := snapshot(false)
	got := snapshot(true)

	if got.JobsTotal != ref.JobsTotal || got.JobsDone != ref.JobsDone {
		t.Errorf("batch jobs total/done = %d/%d, per-user %d/%d",
			got.JobsTotal, got.JobsDone, ref.JobsTotal, ref.JobsDone)
	}
	if got.CellsTotal != ref.CellsTotal || got.CellsDone != ref.CellsDone {
		t.Errorf("batch cells total/done = %d/%d, per-user %d/%d",
			got.CellsTotal, got.CellsDone, ref.CellsTotal, ref.CellsDone)
	}
	if got.EngineRuns != ref.EngineRuns || got.EngineHours != ref.EngineHours ||
		got.EngineInstances != ref.EngineInstances || got.EngineSold != ref.EngineSold {
		t.Errorf("engine counters diverge: batch %+v, per-user %+v", got, ref)
	}
	// Baseline (1 call) + three grid cells = 4 batch calls over the
	// whole cohort each.
	if got.BatchRuns != 4 || got.BatchUsers != 4*int64(cfg.PerGroup*3) {
		t.Errorf("batch calls = %d over %d users, want 4 over %d",
			got.BatchRuns, got.BatchUsers, 4*cfg.PerGroup*3)
	}
	if ref.BatchRuns != 0 || ref.BatchUsers != 0 {
		t.Errorf("per-user run booked batch counters: %d/%d", ref.BatchRuns, ref.BatchUsers)
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
	ref, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCohort(context.Background(), withBatch(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Users, ref.Users) {
		t.Fatal("batch pipeline diverges from per-user pipeline at test scale")
	}
}
