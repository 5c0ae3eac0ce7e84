package experiments

// Crash/resume differential suite — the proof the issue asks for: a
// grid interrupted mid-flight and resumed by a fresh plan (modelling a
// process restart) must produce results byte-identical to a run that
// was never interrupted, at parallelism {1, 4, NumCPU}, under -race,
// and must recompute exactly the cells that were not fully spilled.

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// resumeCells builds the same three-cell threshold grid for any plan,
// so the reference run and each crash/resume pair evaluate identical
// work from independently-constructed plans.
func resumeCells(t *testing.T, cfg Config, plan *CohortPlan) []Cell {
	t.Helper()
	cells := make([]Cell, 0, 3)
	for _, k := range []float64{0.25, 0.5, 0.75} {
		policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, k)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, Cell{Name: fmt.Sprintf("k=%v", k), Policy: policy, Engine: plan.engineConfig()})
	}
	return cells
}

// warmBaseline computes the plan's Keep-Reserved baseline outside the
// instrumented window, so a grid's trunks find the card cached.
func warmBaseline(t *testing.T, plan *CohortPlan) {
	t.Helper()
	if _, err := plan.KeepStats(context.Background(), plan.engineConfig()); err != nil {
		t.Fatal(err)
	}
}

func TestGridCrashResumeDifferential(t *testing.T) {
	cfg := smallConfig()
	refPlan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refPlan.RunGrid(context.Background(), resumeCells(t, cfg, refPlan))
	if err != nil {
		t.Fatal(err)
	}
	users := refPlan.Len()

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for _, cancelAfter := range []int64{0, 1, int64(users), 2 * int64(users)} {
			t.Run(fmt.Sprintf("par=%d/cancelAfter=%d", par, cancelAfter), func(t *testing.T) {
				spillDir := t.TempDir()

				// Crash phase: a fresh plan spills until the hook pulls the
				// plug mid-grid.
				crashCfg := cfg
				crashCfg.Parallelism = par
				crashCfg.SpillDir = spillDir
				crashPlan, err := NewCohortPlan(context.Background(), crashCfg)
				if err != nil {
					t.Fatal(err)
				}
				warmBaseline(t, crashPlan)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var calls atomic.Int64
				orig := simulateResume
				simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
					if calls.Add(1) > cancelAfter {
						cancel()
					}
					return orig(s, u, pt, ec, pol)
				}
				_, err = crashPlan.RunGrid(ctx, resumeCells(t, cfg, crashPlan))
				simulateResume = orig
				if err == nil {
					t.Skip("cancellation raced completion; nothing to resume")
				}
				var ce *CancelError
				if !errors.As(err, &ce) {
					t.Fatalf("interrupted grid returned %v, want *CancelError", err)
				}

				// Resume phase: another fresh plan (the restarted process),
				// deliberately at a different parallelism — the spilled
				// shards must validate regardless of worker count.
				resumePar := 1
				if par == 1 {
					resumePar = 4
				}
				resumeCfg := cfg
				resumeCfg.Parallelism = resumePar
				resumeCfg.SpillDir = spillDir
				resumeCfg.Resume = true
				resumePlan, err := NewCohortPlan(context.Background(), resumeCfg)
				if err != nil {
					t.Fatal(err)
				}
				trunks, recomputed := countEngineRuns(t)
				got, err := resumePlan.RunGrid(context.Background(), resumeCells(t, cfg, resumePlan))
				if err != nil {
					t.Fatalf("resume failed: %v", err)
				}
				assertGridsEqual(t, got, ref)

				// Exactly the cells the crash did not finish are recomputed:
				// every name in CancelError.Completed was spilled whole.
				// They need the trunks, one per user, unless none is left.
				want := int64(len(ref)-len(ce.Completed)) * int64(users)
				if recomputed.Load() != want {
					t.Errorf("resume ran the engine %d times, want %d (%d of %d cells resumed)",
						recomputed.Load(), want, len(ce.Completed), len(ref))
				}
				wantTrunks := int64(users)
				if want == 0 {
					wantTrunks = 0
				}
				if trunks.Load() != wantTrunks {
					t.Errorf("resume ran %d trunks, want %d", trunks.Load(), wantTrunks)
				}
			})
		}
	}
}

// TestGridResumeAfterCompletion pins the no-op resume: a grid whose
// spill store is complete recomputes nothing and still returns the
// byte-identical result.
func TestGridResumeAfterCompletion(t *testing.T) {
	cfg := smallConfig()
	spillDir := t.TempDir()

	firstCfg := cfg
	firstCfg.SpillDir = spillDir
	firstPlan, err := NewCohortPlan(context.Background(), firstCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := firstPlan.RunGrid(context.Background(), resumeCells(t, cfg, firstPlan))
	if err != nil {
		t.Fatal(err)
	}

	resumeCfg := cfg
	resumeCfg.SpillDir = spillDir
	resumeCfg.Resume = true
	resumePlan, err := NewCohortPlan(context.Background(), resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	// The baseline stays cold: a grid resumed whole needs no trunk.
	trunks, recomputed := countEngineRuns(t)
	got, err := resumePlan.RunGrid(context.Background(), resumeCells(t, cfg, resumePlan))
	if err != nil {
		t.Fatal(err)
	}
	assertGridsEqual(t, got, ref)
	if recomputed.Load() != 0 || trunks.Load() != 0 {
		t.Errorf("complete store still triggered %d resumed runs and %d trunks", recomputed.Load(), trunks.Load())
	}
}

// TestGridResumeTornTail damages the spill store the way a crash
// mid-append would — a torn record at the tail of a shard — and
// asserts the resume re-runs exactly the lost cell and nothing else,
// with the final grid still byte-identical.
func TestGridResumeTornTail(t *testing.T) {
	cfg := smallConfig()
	spillDir := t.TempDir()

	firstCfg := cfg
	firstCfg.Parallelism = 1 // one shard, records in cell order
	firstCfg.SpillDir = spillDir
	firstPlan, err := NewCohortPlan(context.Background(), firstCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := firstPlan.RunGrid(context.Background(), resumeCells(t, cfg, firstPlan))
	if err != nil {
		t.Fatal(err)
	}

	shard := filepath.Join(spillDir, "grid", "shard-000.grid")
	info, err := os.Stat(shard)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(shard, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	resumeCfg := cfg
	resumeCfg.SpillDir = spillDir
	resumeCfg.Resume = true
	resumePlan, err := NewCohortPlan(context.Background(), resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	warmBaseline(t, resumePlan)
	trunks, recomputed := countEngineRuns(t)
	got, err := resumePlan.RunGrid(context.Background(), resumeCells(t, cfg, resumePlan))
	if err != nil {
		t.Fatal(err)
	}
	assertGridsEqual(t, got, ref)
	users := int64(resumePlan.Len())
	if recomputed.Load() != users {
		t.Errorf("torn tail re-ran the engine %d times, want %d (one cell)", recomputed.Load(), users)
	}
	if trunks.Load() != users {
		t.Errorf("torn tail ran %d trunks, want %d (one per user for the lost cell)", trunks.Load(), users)
	}
}

// TestGridSpecConfigHashPinned fixes the spill store's config hash for
// one Config and cell list to the value earlier releases wrote, so a
// store spilled by an older binary still resumes after Config changes
// that touch no hashed field. Execution plumbing (Parallelism,
// SpillDir, Resume) is set to non-zero values to show it stays out of
// the hash.
func TestGridSpecConfigHashPinned(t *testing.T) {
	cfg := TestScaleConfig()
	cfg.MarketFee = 0.12
	cfg.Parallelism = 4
	cfg.SpillDir = "spill"
	cfg.Resume = true
	eng := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount, MarketFee: cfg.MarketFee}
	cells := []Cell{
		{Name: "k=0.25", Engine: eng},
		{Name: "k=0.5", Engine: eng},
		{Name: "k=0.75", Engine: eng},
	}
	spec, err := gridSpec(cfg, "sweep-k", cells, 90, "")
	if err != nil {
		t.Fatal(err)
	}
	const want = "056b36f42bfabad322cf4b97a141bb6aac8ad80584427f4824b9601efdf886c4"
	if spec.ConfigHash != want {
		t.Fatalf("ConfigHash = %s, want %s: spill stores written by earlier releases would no longer resume", spec.ConfigHash, want)
	}
}

// TestInputsDigest: a trace-backed plan's digest follows its users'
// names and demand, so equal-sized trace sets never share a spill
// store; a synthetic cohort has none, which keeps its pinned hash.
func TestInputsDigest(t *testing.T) {
	ctx := context.Background()
	cfg := smallConfig()
	synth, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := synth.inputsDigest(); d != "" {
		t.Errorf("synthetic plan digest = %q, want none", d)
	}
	digest := func(users ...workload.Trace) string {
		t.Helper()
		plan, err := PlanTraces(ctx, cfg, users)
		if err != nil {
			t.Fatal(err)
		}
		return plan.inputsDigest()
	}
	base := digest(workload.Trace{User: "u", Demand: []int{1, 2}}, workload.Trace{User: "v", Demand: []int{3}})
	if base == "" || base != digest(workload.Trace{User: "u", Demand: []int{1, 2}}, workload.Trace{User: "v", Demand: []int{3}}) {
		t.Fatalf("digest %q is empty or not reproducible", base)
	}
	for name, users := range map[string][]workload.Trace{
		"demand": {{User: "u", Demand: []int{1, 3}}, {User: "v", Demand: []int{3}}},
		"name":   {{User: "w", Demand: []int{1, 2}}, {User: "v", Demand: []int{3}}},
		"order":  {{User: "v", Demand: []int{3}}, {User: "u", Demand: []int{1, 2}}},
	} {
		if digest(users...) == base {
			t.Errorf("changing the %s kept the digest", name)
		}
	}
}
