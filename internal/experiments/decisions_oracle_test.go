package experiments

// The hour-0 decision-table build that Decisions replaced, kept as its
// oracle: every (selling policy, user) replayed from hour 0 on one
// Scratch, with the baselines from the plan's KeepStats. Decisions
// resumes each replay from the user's Keep-Reserved trunk instead, and
// must build a reflect.DeepEqual set.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rimarket/internal/gtrace"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// decisionsFromHourZero is the reference decision-table build.
func decisionsFromHourZero(ctx context.Context, p *CohortPlan) (*DecisionSet, error) {
	policies, err := buildPolicies(p.cfg)
	if err != nil {
		return nil, err
	}
	engCfg := p.engineConfig()
	keeps, err := p.KeepStats(ctx, engCfg)
	if err != nil {
		return nil, err
	}
	s, replayed := p.newDecisionSet(policies)
	s.setKeeps(keeps)
	var sc simulate.Scratch
	for _, np := range replayed {
		pd := s.byPolicy[np.name]
		for ui := range p.users {
			u := &p.users[ui]
			tot, err := sc.Totals(u.Trace.Demand, u.NewRes, engCfg, np.policy)
			if err != nil {
				return nil, fmt.Errorf("policy %s: user %s: %w", np.name, u.Trace.User, err)
			}
			pd.users[ui] = pd.table(np.policy, p.cfg.Instance.PeriodHours, tot, sc.Records())
		}
	}
	return s, nil
}

// assertDecisionsMatchOracle builds the decision set of plan and of a
// second plan of the same cohort through the oracle, and requires them
// to be deeply equal.
func assertDecisionsMatchOracle(t *testing.T, name string, plan func() *CohortPlan) {
	t.Helper()
	ctx := context.Background()
	got, err := plan().Decisions(ctx)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, err := decisionsFromHourZero(ctx, plan())
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	if !reflect.DeepEqual(got, want) {
		for _, policy := range want.policies {
			if !reflect.DeepEqual(got.byPolicy[policy], want.byPolicy[policy]) {
				t.Errorf("%s: policy %s: tables differ from the hour-0 oracle", name, policy)
			}
		}
		t.Fatalf("%s: decision set differs from the hour-0 oracle", name)
	}
}

// TestDecisionsDifferential pins Decisions, resumed from the
// Keep-Reserved trunks, to the hour-0 oracle on test-scale cohorts of
// four seeds (one with a horizon past the reservation period, one with
// a market fee) at parallelism 1, 4 and NumCPU.
func TestDecisionsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		cfg := TestScaleConfig()
		cfg.Seed = seed
		switch seed {
		case 2:
			cfg.Hours = cfg.Instance.PeriodHours * 3 / 2
		case 3:
			cfg.MarketFee = 0.12
		}
		for _, par := range auditParallelisms() {
			cfg.Parallelism = par
			assertDecisionsMatchOracle(t, fmt.Sprintf("seed=%d/parallelism=%d", seed, par), func() *CohortPlan {
				p, err := NewCohortPlan(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
		}
	}
}

// TestDecisionsDifferentialTraceDir runs the same check on rid's path:
// a cohort written as EC2 usage logs, loaded back with gtrace and
// planned with PlanTraces.
func TestDecisionsDifferentialTraceDir(t *testing.T) {
	cfg := TestScaleConfig()
	cohort, err := workload.NewCohort(workload.CohortConfig{PerGroup: cfg.PerGroup, Hours: cfg.Hours, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for i, tr := range cohort {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("u%05d.csv", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := gtrace.WriteEC2Log(f, tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	traces, _, err := gtrace.LoadFS(os.DirFS(dir), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertDecisionsMatchOracle(t, "tracedir", func() *CohortPlan {
		p, err := PlanTraces(context.Background(), cfg, traces)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
}
