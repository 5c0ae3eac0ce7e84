package analysis

import (
	"math"
	"strings"
	"testing"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
)

// These tests exercise the error and edge paths of the theory module:
// degenerate checkpoints, schedules of the wrong length, invalid
// parameters, and the diverging case-2 denominator.

func TestAdversarialSchedulesErrors(t *testing.T) {
	// A two-hour period makes k = 1/4 round to age 1 (fine) but a
	// one-hour period degenerates every checkpoint.
	tiny := pricing.InstanceType{
		Name:           "tiny",
		OnDemandHourly: 1,
		Upfront:        1,
		ReservedHourly: 0.5,
		PeriodHours:    1,
	}
	p, err := core.NewThreshold(tiny, 0.5, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := AdversarialSchedules(p); err == nil {
		t.Error("degenerate checkpoint accepted")
	} else if !strings.Contains(err.Error(), "degenerate") {
		t.Errorf("error %q does not mention the degenerate checkpoint", err)
	}
	if _, err := WorstMeasuredRatio(p, 0.5); err == nil {
		t.Error("WorstMeasuredRatio accepted degenerate checkpoint")
	}
}

func TestMeasuredRatioErrors(t *testing.T) {
	it := cardTheta2()
	policy, err := core.NewAT2(it, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-length schedule propagates the core error.
	if _, err := MeasuredRatio(make([]bool, 3), policy, 0.8); err == nil {
		t.Error("short schedule accepted")
	}
	// Invalid discount propagates.
	if _, err := MeasuredRatio(make([]bool, it.PeriodHours), policy, 2); err == nil {
		t.Error("bad discount accepted")
	}
}

// TestMeasuredRatioDiscountMismatch: the online cost is priced at the
// policy's own discount, so an a that differs from it would divide the
// costs of two markets; MeasuredRatio and VerifyBound refuse it.
func TestMeasuredRatioDiscountMismatch(t *testing.T) {
	it := cardTheta2()
	policy, err := core.NewAT2(it, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sched := make([]bool, it.PeriodHours)
	if _, err := MeasuredRatio(sched, policy, 0.5); err == nil {
		t.Error("MeasuredRatio accepted a = 0.5 for a policy built at 0.8")
	} else if !strings.Contains(err.Error(), "differs") {
		t.Errorf("error %q does not name the mismatch", err)
	}
	if _, _, err := VerifyBound(sched, policy, 0.5); err == nil {
		t.Error("VerifyBound accepted a = 0.5 for a policy built at 0.8")
	}
	if _, err := MeasuredRatio(sched, policy, 0.8); err != nil {
		t.Errorf("matching discount refused: %v", err)
	}
}

func TestVerifyBoundErrors(t *testing.T) {
	it := cardTheta2()
	policy, err := core.NewAT2(it, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := VerifyBound(make([]bool, 5), policy, 0.8); err == nil {
		t.Error("short schedule accepted")
	}
	if _, _, err := VerifyBound(make([]bool, it.PeriodHours), policy, -1); err == nil {
		t.Error("negative discount accepted")
	}
}

func TestRatioForFractionExtremeEarlyCheckpoint(t *testing.T) {
	// At an extreme early checkpoint with a = 1, the case-2 bound
	// 1/(1-(1-k)a) blows up (but stays finite: (1-k)*a < 1 whenever
	// k > 0 and a <= 1, so the division-guard branch is structurally
	// unreachable for validated inputs) and dominates case 1.
	b, err := RatioForFraction(0.005, 0.1, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if b.Regime != RegimeKeepMistake {
		t.Errorf("regime = %v, want case-2", b.Regime)
	}
	if math.IsInf(b.Ratio, 0) || math.IsNaN(b.Ratio) || b.Ratio < 100 {
		t.Errorf("ratio = %v, want a large finite case-2 bound (1/0.005 = 200)", b.Ratio)
	}
}

func TestAnalyzeCatalogPropagatesBadDiscount(t *testing.T) {
	cat := pricing.StandardLinuxUSEast()
	if _, err := AnalyzeCatalog(cat, core.Fraction3T4, 2); err == nil {
		t.Error("bad discount accepted")
	}
	if _, err := AnalyzeCatalog(cat, 0, 0.5); err == nil {
		t.Error("bad fraction accepted")
	}
}

func TestMeasuredRatioZeroCostGuard(t *testing.T) {
	// A card with a zero reserved rate and a = 1, schedule empty: OPT
	// sells at the checkpoint for income a*R*(1-k) leaving cost
	// R(1 - a*(1-k)) > 0 — so the guard should not fire for valid
	// cards; this documents that positive OPT cost is structural.
	it := pricing.InstanceType{
		Name:           "freehourly",
		OnDemandHourly: 1,
		Upfront:        10,
		ReservedHourly: 0,
		PeriodHours:    100,
	}
	policy, err := core.NewAT2(it, 1)
	if err != nil {
		t.Fatal(err)
	}
	r, err := MeasuredRatio(make([]bool, 100), policy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r < 1-1e-9 {
		t.Errorf("ratio = %v, want >= 1", r)
	}
}
