package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
	"rimarket/internal/simulate"
)

func withParallelism(cfg Config, par int) Config {
	cfg.Parallelism = par
	return cfg
}

// parallelisms are the worker counts every determinism property is
// checked at; 1 is the serial reference.
func parallelisms() []int {
	ps := []int{1, 2}
	if n := runtime.GOMAXPROCS(0); n != 1 && n != 2 {
		ps = append(ps, n)
	}
	return ps
}

// TestDriversParallelismInvariant asserts the ported drivers return
// exactly equal results at any worker count. Run under -race in CI,
// this is also the suite that proves the fan-out has no data races.
func TestDriversParallelismInvariant(t *testing.T) {
	drivers := []struct {
		name string
		run  func(Config) (any, error)
	}{
		{name: "RunCohort", run: func(c Config) (any, error) {
			res, err := RunCohort(context.Background(), c)
			if err != nil {
				return nil, err
			}
			return res.Users, nil // Config echoes Parallelism; compare outcomes only
		}},
		{name: "SweepFraction", run: func(c Config) (any, error) {
			return SweepFraction(context.Background(), c, []float64{0.25, 0.5, 0.75})
		}},
		{name: "SweepDiscount", run: func(c Config) (any, error) {
			return SweepDiscount(context.Background(), c, []float64{0.2, 0.8})
		}},
		{name: "SweepMarketFee", run: func(c Config) (any, error) {
			return SweepMarketFee(context.Background(), c, []float64{0, 0.12})
		}},
		{name: "Sensitivity", run: func(c Config) (any, error) {
			return Sensitivity(context.Background(), c, []float64{0.2, 0.8}, []float64{0.25, 0.75})
		}},
		{name: "Extensions", run: func(c Config) (any, error) {
			return Extensions(context.Background(), c)
		}},
		{name: "HourResellComparison", run: func(c Config) (any, error) {
			return HourResellComparison(context.Background(), c, []float64{0.25, 0.75})
		}},
		{name: "MarketSession", run: func(c Config) (any, error) {
			return MarketSession(context.Background(), c, []float64{0.2, 2})
		}},
	}
	for _, d := range drivers {
		t.Run(d.name, func(t *testing.T) {
			want, err := d.run(withParallelism(smallConfig(), 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range parallelisms()[1:] {
				got, err := d.run(withParallelism(smallConfig(), par))
				if err != nil {
					t.Fatalf("parallelism %d: %v", par, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("parallelism %d: results differ from serial run:\nserial: %+v\ngot:    %+v", par, want, got)
				}
			}
		})
	}
}

// TestRunIndexedFirstErrorDeterministic pins the executor's error
// contract: the lowest-index failing job wins at any worker count, and
// jobs below that index always run.
func TestRunIndexedFirstErrorDeterministic(t *testing.T) {
	const n = 64
	failAt := map[int]bool{7: true, 3: true, 40: true}
	for _, workers := range []int{1, 2, 8, n} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			ran := make([]atomic.Bool, n)
			_, err := runPool(context.Background(), workers, n, func(_, i int) error {
				ran[i].Store(true)
				if failAt[i] {
					return fmt.Errorf("job %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 3 failed" {
				t.Fatalf("err = %v, want job 3's", err)
			}
			for i := 0; i < 3; i++ {
				if !ran[i].Load() {
					t.Errorf("job %d below the failing index never ran", i)
				}
			}
		})
	}
}

func TestRunIndexedAllJobsRunOnSuccess(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 100} {
		const n = 41
		ran := make([]atomic.Bool, n)
		if _, err := runPool(context.Background(), workers, n, func(_, i int) error {
			ran[i].Store(true)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Fatalf("workers=%d: job %d never ran", workers, i)
			}
		}
	}
	if _, err := runPool(context.Background(), 4, 0, func(_, _ int) error { return errors.New("never") }); err != nil {
		t.Errorf("zero jobs: %v", err)
	}
}

// TestGridFirstErrorDeterministicAcrossWorkers injects engine failures
// for two users, once into their trunks and once into their resumed
// cell runs, and asserts the same (lowest-index) user surfaces in the
// error at every worker count.
func TestGridFirstErrorDeterministicAcrossWorkers(t *testing.T) {
	plan, err := NewCohortPlan(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	failUsers := []int{3, 7}
	failDemand := map[*int]bool{}
	for _, u := range failUsers {
		failDemand[&plan.users[u].Trace.Demand[0]] = true
	}
	policy, err := core.NewA3T4(plan.cfg.Instance, plan.cfg.SellingDiscount)
	if err != nil {
		t.Fatal(err)
	}
	origTrunk, origResume := simulateTrunk, simulateResume
	defer func() { simulateTrunk, simulateResume = origTrunk, origResume }()
	for _, seam := range []string{"trunk", "resume"} {
		t.Run(seam, func(t *testing.T) {
			simulateTrunk, simulateResume = origTrunk, origResume
			if seam == "trunk" {
				simulateTrunk = func(s *simulate.Scratch, demand, newRes []int, cfg simulate.Config, hours []int, pts []simulate.ResumePoint) (simulate.Totals, error) {
					if failDemand[&demand[0]] {
						return simulate.Totals{}, errors.New("injected engine failure")
					}
					return origTrunk(s, demand, newRes, cfg, hours, pts)
				}
			} else {
				simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, cfg simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
					if u == failUsers[0] || u == failUsers[1] {
						return simulate.Totals{}, errors.New("injected engine failure")
					}
					return origResume(s, u, pt, cfg, pol)
				}
			}
			var want string
			for _, par := range parallelisms() {
				plan.cfg.Parallelism = par
				plan.keeps = map[pricing.InstanceType][]KeepStat{} // reset cache so baselines re-run under the hook
				_, err := plan.RunGrid(context.Background(), []Cell{{Name: "probe", Policy: policy, Engine: plan.engineConfig()}})
				if err == nil {
					t.Fatalf("parallelism %d: injected failure not surfaced", par)
				}
				if want == "" {
					want = err.Error()
				} else if err.Error() != want {
					t.Fatalf("parallelism %d: error %q differs from serial %q", par, err, want)
				}
			}
			if wantUser := plan.users[failUsers[0]].Trace.User; want == "" || !strings.Contains(want, wantUser) {
				t.Fatalf("error %q does not name lowest failing user %s", want, wantUser)
			}
		})
	}
}

// countEngineRuns swaps both engine seams for counting wrappers until
// the test ends and returns the trunk and resume counters.
func countEngineRuns(t *testing.T) (trunks, resumes *atomic.Int64) {
	t.Helper()
	trunks, resumes = new(atomic.Int64), new(atomic.Int64)
	origTrunk, origResume := simulateTrunk, simulateResume
	simulateTrunk = func(s *simulate.Scratch, demand, newRes []int, cfg simulate.Config, hours []int, pts []simulate.ResumePoint) (simulate.Totals, error) {
		trunks.Add(1)
		return origTrunk(s, demand, newRes, cfg, hours, pts)
	}
	simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, cfg simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
		resumes.Add(1)
		return origResume(s, u, pt, cfg, pol)
	}
	t.Cleanup(func() { simulateTrunk, simulateResume = origTrunk, origResume })
	return trunks, resumes
}

// TestSweepKeepBaselineHoisted is the regression test for the latent
// per-cell waste in the old sweepOver: the Keep-Reserved baseline does
// not depend on the swept value, so a sweep over V values must cost
// exactly users*(V+1) engine runs — V resumed cells plus one trunk per
// user, which is also the baseline — not users*2V.
func TestSweepKeepBaselineHoisted(t *testing.T) {
	trunks, resumes := countEngineRuns(t)
	cfg := smallConfig()
	values := []float64{0.25, 0.5, 0.75}
	if _, err := SweepFraction(context.Background(), cfg, values); err != nil {
		t.Fatal(err)
	}
	users := int64(3 * cfg.PerGroup)
	if got := trunks.Load(); got != users {
		t.Errorf("sweep ran %d trunks, want one per user (%d)", got, users)
	}
	if got, want := resumes.Load(), users*int64(len(values)); got != want {
		t.Errorf("sweep over %d values resumed %d runs, want %d", len(values), got, want)
	}
}

// TestSensitivityRunsOneBaselinePerCard extends the hoist guarantee to
// the 2D grid: a full a-by-k grid shares one trunk per user because the
// Keep-Reserved cost only depends on the price card.
func TestSensitivityRunsOneBaselinePerCard(t *testing.T) {
	trunks, resumes := countEngineRuns(t)
	cfg := smallConfig()
	discounts := []float64{0.2, 0.5, 0.8}
	fractions := []float64{0.25, 0.75}
	if _, err := Sensitivity(context.Background(), cfg, discounts, fractions); err != nil {
		t.Fatal(err)
	}
	users := int64(3 * cfg.PerGroup)
	if got := trunks.Load(); got != users {
		t.Errorf("grid ran %d trunks, want one per user (%d)", got, users)
	}
	if got, want := resumes.Load(), users*int64(len(discounts)*len(fractions)); got != want {
		t.Errorf("grid resumed %d runs, want %d", got, want)
	}
}

// TestGridOneTrunkPerUserPerCard pins the trunk count on a two-card
// grid and the cache it fills: one Keep-Reserved replay per user per
// card, none again for the cohort's own baseline afterwards.
func TestGridOneTrunkPerUserPerCard(t *testing.T) {
	plan, err := NewCohortPlan(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cells, cards := twoCardCells(t, plan)
	trunks, resumes := countEngineRuns(t)
	if _, err := plan.RunGrid(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	for _, card := range cards {
		eng := plan.engineConfig()
		eng.Instance = card
		if _, err := plan.KeepStats(context.Background(), eng); err != nil {
			t.Fatal(err)
		}
	}
	users := int64(plan.Len())
	if got, want := trunks.Load(), users*int64(len(cards)); got != want {
		t.Errorf("two-card grid ran %d trunks, want %d (one per user per card)", got, want)
	}
	if got, want := resumes.Load(), users*int64(len(cells)); got != want {
		t.Errorf("two-card grid resumed %d runs, want %d", got, want)
	}
}

// TestKeepBaselineIndependentOfSellingParams pins the invariant the
// KeepStats cache key relies on: Keep-Reserved never sells, so its
// cost and idle hours cannot depend on the selling discount or the
// market fee.
func TestKeepBaselineIndependentOfSellingParams(t *testing.T) {
	cfg := smallConfig()
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := plan.users[0]
	configs := []simulate.Config{
		{Instance: cfg.Instance, SellingDiscount: 0.2},
		{Instance: cfg.Instance, SellingDiscount: 0.9, MarketFee: 0.12},
	}
	var ref simulate.Result
	for i, ec := range configs {
		run, err := simulate.Run(u.Trace.Demand, u.NewRes, ec, core.KeepReserved{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = run
			continue
		}
		if run.Cost.Total() != ref.Cost.Total() {
			t.Errorf("keep cost varies with selling params: %v vs %v", run.Cost.Total(), ref.Cost.Total())
		}
	}
}

// TestPlanReuseMatchesFreshRuns asserts a shared plan returns the same
// results as the one-shot drivers (the cache is an optimization, not a
// behavior change).
func TestPlanReuseMatchesFreshRuns(t *testing.T) {
	cfg := smallConfig()
	plan, err := NewCohortPlan(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gotSweep, err := plan.SweepFraction(context.Background(), []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	wantSweep, err := SweepFraction(context.Background(), cfg, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotSweep, wantSweep) {
		t.Errorf("plan sweep %+v != fresh sweep %+v", gotSweep, wantSweep)
	}
	gotGrid, err := plan.Sensitivity(context.Background(), []float64{0.4, 0.8}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	wantGrid, err := Sensitivity(context.Background(), cfg, []float64{0.4, 0.8}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotGrid, wantGrid) {
		t.Errorf("plan grid %+v != fresh grid %+v", gotGrid, wantGrid)
	}
	res, err := plan.Cohort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Users, want.Users) {
		t.Error("plan cohort differs from RunCohort")
	}
}

// TestRunGridValidation covers the executor's edge cases.
func TestRunGridValidation(t *testing.T) {
	plan, err := NewCohortPlan(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunGrid(context.Background(), nil); err == nil {
		t.Error("empty cell list accepted")
	}
	if _, err := plan.RunGrid(context.Background(), []Cell{{Name: "nil policy", Engine: plan.engineConfig()}}); err == nil {
		t.Error("nil policy accepted")
	}
	if plan.Len() != 3*plan.Config().PerGroup {
		t.Errorf("Len = %d", plan.Len())
	}
	if len(plan.Users()) != plan.Len() {
		t.Errorf("Users() length %d != Len %d", len(plan.Users()), plan.Len())
	}
}
