package experiments

import (
	"context"
	"testing"

	"rimarket/internal/purchasing"
	"rimarket/internal/workload"
)

// testScaleResult memoizes the TestScaleConfig cohort for the shape
// assertions below (one run, ~0.3 s, shared across tests).
var testScaleResult *CohortResult

func testScale(t *testing.T) *CohortResult {
	t.Helper()
	if testing.Short() {
		t.Skip("integration shapes skipped in -short mode")
	}
	if testScaleResult == nil {
		res, err := RunCohort(context.Background(), TestScaleConfig())
		if err != nil {
			t.Fatal(err)
		}
		testScaleResult = res
	}
	return testScaleResult
}

// TestShapeTable3Ordering asserts the paper's central result: average
// normalized cost strictly ordered A_{T/4} < A_{T/2} < A_{3T/4} < 1,
// overall and in every group (Table III, Fig. 4).
func TestShapeTable3Ordering(t *testing.T) {
	res := testScale(t)
	rows := Table3(res)
	byPolicy := make(map[string]Table3Row, len(rows))
	for _, r := range rows {
		byPolicy[r.Policy] = r
	}
	a34, a2, a4 := byPolicy[PolicyA3T4], byPolicy[PolicyAT2], byPolicy[PolicyAT4]

	type col struct {
		name        string
		v34, v2, v4 float64
	}
	cols := []col{
		{name: "all", v34: a34.All, v2: a2.All, v4: a4.All},
		{name: "group1", v34: a34.Group1, v2: a2.Group1, v4: a4.Group1},
		{name: "group2", v34: a34.Group2, v2: a2.Group2, v4: a4.Group2},
		{name: "group3", v34: a34.Group3, v2: a2.Group3, v4: a4.Group3},
	}
	for i, c := range cols {
		// The all-users column must be strictly ordered (the paper's
		// headline); per-group columns get a small slack for the
		// test-scale cohort's sampling noise (full scale is strict).
		slack := 0.0
		if i > 0 {
			slack = 0.01
		}
		if !(c.v4 < c.v2+slack && c.v2 < c.v34+slack && c.v34 < 1) {
			t.Errorf("%s: ordering violated: A_{T/4}=%v A_{T/2}=%v A_{3T/4}=%v",
				c.name, c.v4, c.v2, c.v34)
		}
	}
	// Rough magnitude: overall savings in the paper's ballpark
	// (paper: 0.93 / 0.86 / 0.80; accept a one-decile window).
	if a34.All < 0.88 || a34.All > 0.99 {
		t.Errorf("A_{3T/4} all-users mean %v outside [0.88, 0.99]", a34.All)
	}
	if a4.All < 0.70 || a4.All > 0.90 {
		t.Errorf("A_{T/4} all-users mean %v outside [0.70, 0.90]", a4.All)
	}
}

// TestShapeFig3Savers asserts Fig. 3's qualitative claims: a large
// share of users save, savings deepen with earlier checkpoints, and a
// small pay-more tail exists whose worst case grows with earlier
// checkpoints.
func TestShapeFig3Savers(t *testing.T) {
	res := testScale(t)
	var prevSaved, prevDeep float64
	var worst [3]float64
	for i, p := range SellingPolicies { // A_{3T/4}, A_{T/2}, A_{T/4}
		sum, err := Fig3(res.Users, p)
		if err != nil {
			t.Fatal(err)
		}
		if sum.FracSaved < 0.35 {
			t.Errorf("%s: only %.0f%% of users save", p, sum.FracSaved*100)
		}
		if sum.FracWorse > 0.10 {
			t.Errorf("%s: %.0f%% of users pay more (tail too fat)", p, sum.FracWorse*100)
		}
		if i > 0 && sum.FracSaved30 < prevDeep-1e-9 {
			t.Errorf("%s: deep savings %.2f below later checkpoint's %.2f", p, sum.FracSaved30, prevDeep)
		}
		prevSaved, prevDeep = sum.FracSaved, sum.FracSaved30
		worst[i] = sum.WorstIncrease
	}
	_ = prevSaved
	// Risk ordering (the paper's Table II message): the latest
	// checkpoint has the smallest worst-case increase.
	if !(worst[0] <= worst[1]+1e-9 && worst[1] <= worst[2]+1e-9) {
		t.Errorf("worst-case increases not ordered by checkpoint: %v", worst)
	}
}

// TestShapeAllSellingDominated asserts each online algorithm tracks or
// beats its All-Selling benchmark on average (Fig. 3's visual claim).
// At a = 0.8 sale income is large enough that blanket selling is close
// to optimal, so the threshold rule is allowed a 1% slack — what it
// buys over All-Selling is the bounded worst case (see
// TestShapeFig3Savers' risk ordering), not the mean.
func TestShapeAllSellingDominated(t *testing.T) {
	res := testScale(t)
	pairs := map[string]string{
		PolicyA3T4: PolicySell3T4,
		PolicyAT2:  PolicySellT2,
		PolicyAT4:  PolicySellT4,
	}
	for online, bench := range pairs {
		var onlineSum, benchSum float64
		for _, u := range res.Users {
			onlineSum += u.Normalized[online]
			benchSum += u.Normalized[bench]
		}
		n := float64(len(res.Users))
		if onlineSum/n > benchSum/n+0.01 {
			t.Errorf("%s mean %.4f worse than %s mean %.4f beyond slack",
				online, onlineSum/n, bench, benchSum/n)
		}
	}
}

// TestShapeFig2Bands asserts the cohort lands exactly in the paper's
// sigma/mu bands with the paper's population sizes.
func TestShapeFig2Bands(t *testing.T) {
	res := testScale(t)
	groups := Fig2(res)
	want := TestScaleConfig().PerGroup
	for _, g := range groups {
		if g.Count != want {
			t.Errorf("%v: %d users, want %d", g.Group, g.Count, want)
		}
	}
	if groups[0].MaxRatio >= 1 || groups[1].MinRatio < 1 || groups[1].MaxRatio > 3 || groups[2].MinRatio <= 3 {
		t.Errorf("band edges violated: %v %v %v",
			[2]float64{groups[0].MinRatio, groups[0].MaxRatio},
			[2]float64{groups[1].MinRatio, groups[1].MaxRatio},
			[2]float64{groups[2].MinRatio, groups[2].MaxRatio})
	}
}

// TestShapeBehaviorsAllPresent asserts the four Section VI.A behavior
// imitators are all exercised across the cohort.
func TestShapeBehaviorsAllPresent(t *testing.T) {
	res := testScale(t)
	seen := make(map[string]int)
	for _, u := range res.Users {
		seen[u.Behavior]++
	}
	for _, b := range purchasing.Behaviors {
		if seen[b] == 0 {
			t.Errorf("behavior %s never assigned", b)
		}
	}
}

// TestShapeSellingActuallyHappens guards against a silent regression
// where no checkpoints fire (e.g. a horizon/period mismatch): a
// meaningful share of users must sell at least one instance under
// A_{T/4}.
func TestShapeSellingActuallyHappens(t *testing.T) {
	res := testScale(t)
	sellers := 0
	for _, u := range res.Users {
		if u.Sold[PolicyAT4] > 0 {
			sellers++
		}
	}
	if frac := float64(sellers) / float64(len(res.Users)); frac < 0.3 {
		t.Errorf("only %.0f%% of users ever sell under A_{T/4}", frac*100)
	}
}

// TestShapeVolatileGroupSavesMostHere documents this reproduction's
// known delta versus the paper (see EXPERIMENTS.md): in our synthetic
// cohort the volatile group saves the most. The assertion keeps the
// delta intentional — if cohort changes flip it, EXPERIMENTS.md must be
// re-checked.
func TestShapeVolatileGroupSavesMostHere(t *testing.T) {
	res := testScale(t)
	grouped := res.ByGroup()
	mean := func(g workload.Group, p string) float64 {
		var s float64
		users := grouped[g]
		for _, u := range users {
			s += u.Normalized[p]
		}
		return s / float64(len(users))
	}
	for _, p := range SellingPolicies {
		g1 := mean(workload.GroupStable, p)
		g3 := mean(workload.GroupVolatile, p)
		if g3 > g1 {
			t.Errorf("%s: volatile group mean %.4f above stable %.4f; EXPERIMENTS.md delta note is stale", p, g3, g1)
		}
	}
}
