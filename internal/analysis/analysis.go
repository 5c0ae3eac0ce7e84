// Package analysis implements the paper's competitive-ratio theory:
// the proven bounds for A_{3T/4}, A_{T/2} and A_{T/4} (Propositions 1,
// 2a/2b and 3a/3b), their regime conditions, a generalization to an
// arbitrary checkpoint fraction, adversarial worst-case schedule
// constructions from the proofs, and empirical validation that measured
// online/OPT ratios never exceed the proven bounds.
package analysis

import (
	"fmt"

	"rimarket/internal/core"
	"rimarket/internal/pricing"
)

// ThetaMax is the paper's measured upper bound on theta = p*T/R over
// all 1-year standard Linux US-East instances ("theta in (1, 4)",
// Section IV.C). The named ratio formulas below substitute this value,
// which is how the paper turns Case-1 bounds like 1 + theta*(1-alpha)/4
// into 2 - alpha - a/4.
const ThetaMax = 4.0

// Regime labels which of a proposition's two cases dominates.
type Regime int

// Regimes. Enums start at 1 so the zero value is invalid.
const (
	// RegimeSellMistake is the proofs' Case 1: the online algorithm sold
	// but demand arrived afterwards (bound grows with theta).
	RegimeSellMistake Regime = iota + 1
	// RegimeKeepMistake is the proofs' Case 2: the online algorithm kept
	// but demand stopped (bound 1/(1-(1-k)a)).
	RegimeKeepMistake
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimeSellMistake:
		return "case-1 (sell mistake)"
	case RegimeKeepMistake:
		return "case-2 (keep mistake)"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// Bound is a proven competitive-ratio bound.
type Bound struct {
	// Ratio is the competitive ratio.
	Ratio float64
	// Regime identifies the binding case.
	Regime Regime
}

// RatioForFraction returns the proven competitive-ratio bound of the
// generalized A_{kT} for checkpoint fraction k, reservation discount
// alpha, selling discount a, and theta = p*T/R:
//
//	case 1:  1 + (1-k)*(1-alpha)*theta - (1-k)*a
//	case 2:  1 / (1 - (1-k)*a)
//
// The bound is the larger of the two. With k = 3/4 and theta = 4 this
// reproduces Proposition 1's 2 - alpha - a/4; with k = 1/2 and 1/4 it
// reproduces Propositions 2 and 3.
func RatioForFraction(k, alpha, a, theta float64) (Bound, error) {
	switch {
	case k <= 0 || k >= 1:
		return Bound{}, fmt.Errorf("analysis: fraction %v outside (0, 1)", k)
	case alpha < 0 || alpha >= 1:
		return Bound{}, fmt.Errorf("analysis: alpha %v outside [0, 1)", alpha)
	case a < 0 || a > 1:
		return Bound{}, fmt.Errorf("analysis: selling discount %v outside [0, 1]", a)
	case theta <= 0:
		return Bound{}, fmt.Errorf("analysis: theta %v must be positive", theta)
	}
	rem := 1 - k
	case1 := 1 + rem*(1-alpha)*theta - rem*a
	denom := 1 - rem*a
	if denom <= 0 {
		// Only possible for k+a beyond the paper's ranges; the case-2
		// bound diverges and dominates.
		return Bound{Ratio: case1, Regime: RegimeSellMistake}, nil
	}
	case2 := 1 / denom
	if case2 > case1 {
		return Bound{Ratio: case2, Regime: RegimeKeepMistake}, nil
	}
	return Bound{Ratio: case1, Regime: RegimeSellMistake}, nil
}

// RatioA3T4 returns Proposition 1's bound for A_{3T/4} at theta = 4:
// 2 - alpha - a/4 when alpha + a/4 + 4/(4-a) <= 2, else 4/(4-a).
func RatioA3T4(alpha, a float64) (Bound, error) {
	return RatioForFraction(core.Fraction3T4, alpha, a, ThetaMax)
}

// RatioAT2 returns Propositions 2a/2b's bound for A_{T/2} at theta = 4:
// 3 - 2*alpha - a/2 when alpha + a/4 + 1/(2-a) <= 3/2, else 2/(2-a).
func RatioAT2(alpha, a float64) (Bound, error) {
	return RatioForFraction(core.FractionT2, alpha, a, ThetaMax)
}

// RatioAT4 returns Propositions 3a/3b's bound for A_{T/4} at theta = 4:
// 4 - 3*alpha - 3*a/4 when alpha + a/4 + 4/(12-9a) <= 4/3, else
// 4/(4-3a).
func RatioAT4(alpha, a float64) (Bound, error) {
	return RatioForFraction(core.FractionT4, alpha, a, ThetaMax)
}

// BoundForInstance returns the proven bound for A_{kT} on a concrete
// price card, using the card's own alpha and theta.
func BoundForInstance(it pricing.InstanceType, k, a float64) (Bound, error) {
	if err := it.Validate(); err != nil {
		return Bound{}, err
	}
	return RatioForFraction(k, it.Alpha(), a, it.Theta())
}

// MeasuredRatio runs the online algorithm A_{kT} and the paper's
// restricted offline OPT (which sells no earlier than the checkpoint,
// per Section IV.C) on one instance's busy schedule and returns
// onlineCost / optCost under the proofs' accounting (BillWhenUsed).
// Both costs come from one count of the schedule (core.CompetitiveCosts)
// in one market: a must equal policy.Discount(), or MeasuredRatio
// returns an error rather than a ratio of two markets.
func MeasuredRatio(schedule []bool, policy core.Threshold, a float64) (float64, error) {
	if a != policy.Discount() {
		return 0, fmt.Errorf("analysis: selling discount %v differs from the policy's %v", a, policy.Discount())
	}
	online, opt, err := core.CompetitiveCosts(schedule, policy, core.BillWhenUsed)
	if err != nil {
		return 0, err
	}
	return ratio(online, opt)
}

// ratio is online/opt.Cost, an error unless OPT costs more than zero.
func ratio(online float64, opt core.OfflineDecision) (float64, error) {
	if opt.Cost <= 0 {
		return 0, fmt.Errorf("analysis: OPT cost %v not positive", opt.Cost)
	}
	return online / opt.Cost, nil
}

// VerifyBound checks that the measured online/OPT ratio on the given
// schedule does not exceed the proven bound for the instance (with its
// own alpha and theta). It returns the measured ratio and the bound. As
// in MeasuredRatio, a must equal policy.Discount().
func VerifyBound(schedule []bool, policy core.Threshold, a float64) (measured float64, bound Bound, err error) {
	it := policy.Instance()
	bound, err = BoundForInstance(it, policy.Fraction(), a)
	if err != nil {
		return 0, Bound{}, err
	}
	measured, err = MeasuredRatio(schedule, policy, a)
	if err != nil {
		return 0, Bound{}, err
	}
	return measured, bound, bound.check(measured)
}

// VerifyCosts is VerifyBound on costs already priced, as
// core.WindowCosts returns them: it returns online/opt.Cost and an
// error if OPT's cost is not positive or the ratio exceeds the bound.
func VerifyCosts(online float64, opt core.OfflineDecision, bound Bound) (float64, error) {
	measured, err := ratio(online, opt)
	if err != nil {
		return 0, err
	}
	return measured, bound.check(measured)
}

// check reports a measured ratio above the bound, beyond float noise.
func (b Bound) check(measured float64) error {
	if measured > b.Ratio+1e-9 {
		return fmt.Errorf("analysis: measured ratio %v exceeds proven bound %v (%v)",
			measured, b.Ratio, b.Regime)
	}
	return nil
}
