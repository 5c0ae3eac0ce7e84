package experiments

import (
	"context"
	"fmt"
	"strings"

	"rimarket/internal/core"
	"rimarket/internal/simulate"
)

// SweepPoint is one setting of an ablation sweep.
type SweepPoint struct {
	// Value is the swept parameter (checkpoint fraction, selling
	// discount, or market fee).
	Value float64
	// MeanNormalized is the cohort-mean normalized cost of A_{kT} at
	// this setting.
	MeanNormalized float64
	// FracSaved is the fraction of users saving versus Keep-Reserved.
	FracSaved float64
}

// sweepCells runs one grid cell per swept value and folds each cell
// into a SweepPoint.
func (p *CohortPlan) sweepCells(ctx context.Context, name string, values []float64, cells []Cell) ([]SweepPoint, error) {
	grid, err := p.RunGridNamed(ctx, name, cells)
	if err != nil {
		return nil, err
	}
	out := make([]SweepPoint, len(values))
	for i, v := range values {
		out[i] = SweepPoint{
			Value:          v,
			MeanNormalized: grid[i].MeanNorm(),
			FracSaved:      grid[i].FracSaved(),
		}
	}
	return out, nil
}

// sweepCellsOver builds the selling policy with mk once per parameter
// value, one grid cell each. When valueIsDiscount is set, the swept
// value also replaces the engine's selling discount (income side).
func (p *CohortPlan) sweepCellsOver(values []float64, valueIsDiscount bool, mk func(Config, float64) (simulate.SellingPolicy, error)) ([]Cell, error) {
	cells := make([]Cell, 0, len(values))
	for _, v := range values {
		policy, err := mk(p.cfg, v)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep value %v: %w", v, err)
		}
		engCfg := p.engineConfig()
		if valueIsDiscount {
			engCfg.SellingDiscount = v
		}
		cells = append(cells, Cell{Name: fmt.Sprintf("value=%v", v), Policy: policy, Engine: engCfg})
	}
	return cells, nil
}

// fractionCells are SweepFraction's cells: A_{kT} per fraction k.
func (p *CohortPlan) fractionCells(fractions []float64) ([]Cell, error) {
	return p.sweepCellsOver(fractions, false, func(c Config, k float64) (simulate.SellingPolicy, error) {
		return core.NewThreshold(c.Instance, c.SellingDiscount, k)
	})
}

// discountCells are SweepDiscount's cells: A_{3T/4} per discount a.
func (p *CohortPlan) discountCells(discounts []float64) ([]Cell, error) {
	return p.sweepCellsOver(discounts, true, func(c Config, a float64) (simulate.SellingPolicy, error) {
		return core.NewA3T4(c.Instance, a)
	})
}

// feeCells are SweepMarketFee's cells: A_{3T/4} per market fee.
func (p *CohortPlan) feeCells(fees []float64) ([]Cell, error) {
	cells := make([]Cell, 0, len(fees))
	for _, fee := range fees {
		policy, err := core.NewA3T4(p.cfg.Instance, p.cfg.SellingDiscount)
		if err != nil {
			return nil, fmt.Errorf("experiments: sweep value %v: %w", fee, err)
		}
		engCfg := p.engineConfig()
		engCfg.MarketFee = fee
		cells = append(cells, Cell{Name: fmt.Sprintf("fee=%v", fee), Policy: policy, Engine: engCfg})
	}
	return cells, nil
}

// SweepFraction evaluates the generalized A_{kT} across checkpoint
// fractions on the plan's cohort — the paper's future-work direction
// of selling at an arbitrary time spot.
func (p *CohortPlan) SweepFraction(ctx context.Context, fractions []float64) ([]SweepPoint, error) {
	cells, err := p.fractionCells(fractions)
	if err != nil {
		return nil, err
	}
	return p.sweepCells(ctx, "sweep-k", fractions, cells)
}

// SweepDiscount evaluates A_{3T/4} across selling discounts a on the
// plan's cohort.
func (p *CohortPlan) SweepDiscount(ctx context.Context, discounts []float64) ([]SweepPoint, error) {
	cells, err := p.discountCells(discounts)
	if err != nil {
		return nil, err
	}
	return p.sweepCells(ctx, "sweep-a", discounts, cells)
}

// SweepMarketFee evaluates A_{3T/4} across marketplace fees on the
// plan's cohort.
func (p *CohortPlan) SweepMarketFee(ctx context.Context, fees []float64) ([]SweepPoint, error) {
	cells, err := p.feeCells(fees)
	if err != nil {
		return nil, err
	}
	return p.sweepCells(ctx, "sweep-fee", fees, cells)
}

// SweepFraction is NewCohortPlan plus (*CohortPlan).SweepFraction,
// kept only for the perfbench suite (see RunCohort).
func SweepFraction(ctx context.Context, cfg Config, fractions []float64) ([]SweepPoint, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.SweepFraction(ctx, fractions)
}

// SweepDiscount is NewCohortPlan plus (*CohortPlan).SweepDiscount,
// kept only for the perfbench suite (see RunCohort).
func SweepDiscount(ctx context.Context, cfg Config, discounts []float64) ([]SweepPoint, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.SweepDiscount(ctx, discounts)
}

// SweepMarketFee is NewCohortPlan plus (*CohortPlan).SweepMarketFee,
// kept only for the perfbench suite (see RunCohort).
func SweepMarketFee(ctx context.Context, cfg Config, fees []float64) ([]SweepPoint, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.SweepMarketFee(ctx, fees)
}

// RenderSweep renders sweep points as a small table.
func RenderSweep(title, param string, points []SweepPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-12s %16s %12s\n", title, param, "mean cost (norm)", "users saving")
	for _, pt := range points {
		fmt.Fprintf(&b, "%-12.3f %16.4f %11.0f%%\n", pt.Value, pt.MeanNormalized, pt.FracSaved*100)
	}
	return b.String()
}
