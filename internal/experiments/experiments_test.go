package experiments

import (
	"context"
	"strings"
	"testing"

	"rimarket/internal/pricing"
	"rimarket/internal/workload"
)

// smallConfig keeps unit tests fast; the shape assertions run on
// TestScaleConfig in integration_test.go.
func smallConfig() Config {
	cfg := TestScaleConfig()
	cfg.PerGroup = 6
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := smallConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{name: "bad instance", mutate: func(c *Config) { c.Instance = pricing.InstanceType{} }},
		{name: "bad discount", mutate: func(c *Config) { c.SellingDiscount = 2 }},
		{name: "zero PerGroup", mutate: func(c *Config) { c.PerGroup = 0 }},
		{name: "zero Hours", mutate: func(c *Config) { c.Hours = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := smallConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

func TestDefaultConfigIsPaperScale(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Instance.Name != "d2.xlarge" {
		t.Errorf("instance = %s, want d2.xlarge", cfg.Instance.Name)
	}
	if cfg.PerGroup != 100 || cfg.Hours != pricing.HoursPerYear {
		t.Errorf("scale = %d users/group, %d hours; want 100, %d", cfg.PerGroup, cfg.Hours, pricing.HoursPerYear)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTestScaleConfigPreservesAlphaTheta(t *testing.T) {
	full := pricing.D2XLarge()
	scaled := TestScaleConfig().Instance
	if diff := scaled.Alpha() - full.Alpha(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("alpha changed: %v vs %v", scaled.Alpha(), full.Alpha())
	}
	if diff := scaled.Theta() - full.Theta(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("theta changed: %v vs %v", scaled.Theta(), full.Theta())
	}
}

func TestRunCohortShape(t *testing.T) {
	cfg := smallConfig()
	res, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != cfg.PerGroup*3 {
		t.Fatalf("users = %d, want %d", len(res.Users), cfg.PerGroup*3)
	}
	for _, u := range res.Users {
		if len(u.Costs) != 7 {
			t.Errorf("user %s has %d policies, want 7", u.User, len(u.Costs))
		}
		if u.Normalized[PolicyKeep] != 1 && u.Costs[PolicyKeep] != 0 {
			t.Errorf("user %s: keep normalized = %v", u.User, u.Normalized[PolicyKeep])
		}
		if u.Behavior == "" {
			t.Errorf("user %s has no behavior", u.User)
		}
	}
	grouped := res.ByGroup()
	for _, g := range []workload.Group{workload.GroupStable, workload.GroupModerate, workload.GroupVolatile} {
		if n := len(grouped[g]); n != cfg.PerGroup {
			t.Errorf("%v: %d users, want %d", g, n, cfg.PerGroup)
		}
	}
}

func TestRunCohortDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCohort(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Users {
		for name, cost := range a.Users[i].Costs {
			if b.Users[i].Costs[name] != cost {
				t.Fatalf("user %d policy %s: %v != %v", i, name, cost, b.Users[i].Costs[name])
			}
		}
	}
}

func TestRunCohortRejectsBadConfig(t *testing.T) {
	cfg := smallConfig()
	cfg.PerGroup = -1
	if _, err := RunCohort(context.Background(), cfg); err == nil {
		t.Error("bad config accepted")
	}
}

func TestTable1Rendering(t *testing.T) {
	out := Table1(pricing.D2XLarge())
	for _, want := range []string{"d2.xlarge", "No Upfront", "Partial Upfront", "All Upfront", "On-Demand", "$1506", "alpha = 0.249"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig2GroupsAndRender(t *testing.T) {
	res, err := RunCohort(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	groups := Fig2(res)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// Band boundaries must hold (Fig. 2's x-axis structure).
	if g := groups[0]; g.MaxRatio >= 1 {
		t.Errorf("group 1 max ratio = %v, want < 1", g.MaxRatio)
	}
	if g := groups[1]; g.MinRatio < 1 || g.MaxRatio > 3 {
		t.Errorf("group 2 ratios [%v, %v], want within [1, 3]", g.MinRatio, g.MaxRatio)
	}
	if g := groups[2]; g.MinRatio <= 3 {
		t.Errorf("group 3 min ratio = %v, want > 3", g.MinRatio)
	}
	out := RenderFig2(groups)
	if !strings.Contains(out, "Group 1") || !strings.Contains(out, "#") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFig3SummaryAndRender(t *testing.T) {
	res, err := RunCohort(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fig3(res.Users, PolicyKeep); err == nil {
		t.Error("Fig3 accepted a non-online policy")
	}
	for _, p := range SellingPolicies {
		sum, err := Fig3(res.Users, p)
		if err != nil {
			t.Fatal(err)
		}
		if sum.OnlineCDF.Len() != len(res.Users) {
			t.Errorf("%s: CDF over %d users, want %d", p, sum.OnlineCDF.Len(), len(res.Users))
		}
		if sum.FracSaved+sum.FracWorse > 1 {
			t.Errorf("%s: inconsistent fractions %v + %v", p, sum.FracSaved, sum.FracWorse)
		}
		out := RenderFig3(sum)
		if !strings.Contains(out, p) || !strings.Contains(out, "users saving") {
			t.Errorf("render missing content:\n%s", out)
		}
	}
}

func TestFig4AndRender(t *testing.T) {
	res, err := RunCohort(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	groups := Fig4(res)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, fg := range groups {
		for _, p := range SellingPolicies {
			if fg.CDFs[p] == nil || fg.CDFs[p].Len() == 0 {
				t.Errorf("%v %s: empty CDF", fg.Group, p)
			}
			if fg.Means[p] <= 0 {
				t.Errorf("%v %s: mean %v", fg.Group, p, fg.Means[p])
			}
		}
		out := RenderFig4(fg)
		if !strings.Contains(out, "mean normalized cost") {
			t.Errorf("render missing content:\n%s", out)
		}
	}
}

func TestTable2AndTable3(t *testing.T) {
	res, err := RunCohort(context.Background(), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	out, err := Table2(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table II") || !strings.Contains(out, PolicyA3T4) {
		t.Errorf("Table2 output:\n%s", out)
	}
	u, err := res.MostVolatileUser()
	if err != nil {
		t.Fatal(err)
	}
	if u.Group != workload.GroupVolatile {
		t.Errorf("most volatile user in %v", u.Group)
	}

	rows := Table3(res)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		for _, v := range []float64{row.Group1, row.Group2, row.Group3, row.All} {
			if v <= 0 || v > 1.5 {
				t.Errorf("%s: normalized mean %v out of plausible range", row.Policy, v)
			}
		}
	}
	table := RenderTable3(rows)
	if !strings.Contains(table, "Table III") || !strings.Contains(table, "All users") {
		t.Errorf("RenderTable3 output:\n%s", table)
	}
}

func TestMostVolatileUserEmptyCohort(t *testing.T) {
	r := &CohortResult{}
	if _, err := r.MostVolatileUser(); err == nil {
		t.Error("empty cohort accepted")
	}
}

func TestSweepFraction(t *testing.T) {
	cfg := smallConfig()
	points, err := SweepFraction(context.Background(), cfg, []float64{0.25, 0.5, 0.75})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	for _, pt := range points {
		if pt.MeanNormalized <= 0 || pt.MeanNormalized > 1.5 {
			t.Errorf("k=%v: mean %v implausible", pt.Value, pt.MeanNormalized)
		}
	}
	out := RenderSweep("sweep", "k", points)
	if !strings.Contains(out, "mean cost") {
		t.Errorf("render:\n%s", out)
	}
	if _, err := SweepFraction(context.Background(), cfg, []float64{0}); err == nil {
		t.Error("invalid fraction accepted")
	}
}

func TestSweepDiscountMonotoneIncome(t *testing.T) {
	cfg := smallConfig()
	points, err := SweepDiscount(context.Background(), cfg, []float64{0.2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// A higher selling discount strictly increases sale income per sold
	// instance and enlarges the sell region, so mean normalized cost at
	// a = 0.9 must not exceed the one at a = 0.2.
	if points[1].MeanNormalized > points[0].MeanNormalized+1e-9 {
		t.Errorf("discount 0.9 mean %v > discount 0.2 mean %v",
			points[1].MeanNormalized, points[0].MeanNormalized)
	}
}

func TestSweepMarketFee(t *testing.T) {
	cfg := smallConfig()
	points, err := SweepMarketFee(context.Background(), cfg, []float64{0, 0.12})
	if err != nil {
		t.Fatal(err)
	}
	// A positive fee reduces income, so costs cannot go down.
	if points[1].MeanNormalized < points[0].MeanNormalized-1e-9 {
		t.Errorf("fee 0.12 mean %v < fee 0 mean %v",
			points[1].MeanNormalized, points[0].MeanNormalized)
	}
}

func TestRunCohortParallelismInvariant(t *testing.T) {
	base := smallConfig()
	serial := base
	serial.Parallelism = 1
	parallel := base
	parallel.Parallelism = 8

	a, err := RunCohort(context.Background(), serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCohort(context.Background(), parallel)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Users) != len(b.Users) {
		t.Fatalf("user counts differ: %d vs %d", len(a.Users), len(b.Users))
	}
	for i := range a.Users {
		if a.Users[i].User != b.Users[i].User {
			t.Fatalf("user order differs at %d: %s vs %s", i, a.Users[i].User, b.Users[i].User)
		}
		for name, cost := range a.Users[i].Costs {
			if b.Users[i].Costs[name] != cost {
				t.Fatalf("user %s policy %s: %v vs %v", a.Users[i].User, name, cost, b.Users[i].Costs[name])
			}
		}
	}
}

func TestRunTraces(t *testing.T) {
	cfg := smallConfig()
	traces := []workload.Trace{
		{User: "short", Demand: []int{5, 5, 5}},            // zero-padded
		{User: "long", Demand: make([]int, cfg.Hours+100)}, // clipped
		{User: "exact", Demand: make([]int, cfg.Hours)},    // as is
	}
	for i := range traces[1].Demand {
		traces[1].Demand[i] = 1 + i%3
	}
	plan, err := PlanTraces(context.Background(), cfg, traces)
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.Cohort(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Users) != 3 {
		t.Fatalf("users = %d", len(res.Users))
	}
	for _, u := range res.Users {
		if len(u.Costs) != 7 {
			t.Errorf("user %s: %d policies", u.User, len(u.Costs))
		}
	}
	if _, err := PlanTraces(context.Background(), cfg, nil); err == nil {
		t.Error("empty traces accepted")
	}
	bad := []workload.Trace{{User: "", Demand: []int{1}}}
	if _, err := PlanTraces(context.Background(), cfg, bad); err == nil {
		t.Error("invalid trace accepted")
	}
}
