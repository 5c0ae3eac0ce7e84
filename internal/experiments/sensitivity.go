package experiments

import (
	"context"
	"fmt"
	"strings"

	"rimarket/internal/core"
)

// SensitivityGrid is the 2D ablation over selling discount a (rows)
// and checkpoint fraction k (columns): each cell is the cohort-mean
// normalized cost of A_{kT} when sellers list at discount a.
type SensitivityGrid struct {
	// Discounts are the row values (a).
	Discounts []float64
	// Fractions are the column values (k).
	Fractions []float64
	// Mean[i][j] is the mean normalized cost at (Discounts[i],
	// Fractions[j]).
	Mean [][]float64
}

// Sensitivity runs the a-by-k grid on the plan's cohort: one
// Keep-Reserved trunk per user, then one resumed engine run per
// (cell, user), fanned out over the plan's worker pool. The
// reservation plans are the plan's cached copies, so repeated grids on
// one plan cost only the trunks and the cells.
func (p *CohortPlan) Sensitivity(ctx context.Context, discounts, fractions []float64) (SensitivityGrid, error) {
	if len(discounts) == 0 || len(fractions) == 0 {
		return SensitivityGrid{}, fmt.Errorf("experiments: empty sensitivity axes")
	}
	cells, err := p.sensitivityCells(discounts, fractions)
	if err != nil {
		return SensitivityGrid{}, err
	}
	grid, err := p.RunGridNamed(ctx, "sensitivity", cells)
	if err != nil {
		return SensitivityGrid{}, err
	}
	out := SensitivityGrid{
		Discounts: append([]float64(nil), discounts...),
		Fractions: append([]float64(nil), fractions...),
		Mean:      make([][]float64, len(discounts)),
	}
	for i := range discounts {
		out.Mean[i] = make([]float64, len(fractions))
		for j := range fractions {
			out.Mean[i][j] = grid[i*len(fractions)+j].MeanNorm()
		}
	}
	return out, nil
}

// sensitivityCells are the grid's cells, row-major: A_{kT} at discount
// a for every (a, k).
func (p *CohortPlan) sensitivityCells(discounts, fractions []float64) ([]Cell, error) {
	cells := make([]Cell, 0, len(discounts)*len(fractions))
	for _, a := range discounts {
		engCfg := p.engineConfig()
		engCfg.SellingDiscount = a
		for _, k := range fractions {
			policy, err := core.NewThreshold(p.cfg.Instance, a, k)
			if err != nil {
				return nil, fmt.Errorf("experiments: cell (a=%v, k=%v): %w", a, k, err)
			}
			cells = append(cells, Cell{
				Name:   fmt.Sprintf("a=%v,k=%v", a, k),
				Policy: policy,
				Engine: engCfg,
			})
		}
	}
	return cells, nil
}

// Sensitivity is NewCohortPlan plus (*CohortPlan).Sensitivity, kept
// only for the perfbench suite (see RunCohort).
func Sensitivity(ctx context.Context, cfg Config, discounts, fractions []float64) (SensitivityGrid, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return SensitivityGrid{}, err
	}
	return plan.Sensitivity(ctx, discounts, fractions)
}

// RenderSensitivity renders the grid as a table (rows a, columns k).
func RenderSensitivity(grid SensitivityGrid) string {
	var b strings.Builder
	b.WriteString("Sensitivity — mean normalized cost of A_{kT} by selling discount a and fraction k\n")
	fmt.Fprintf(&b, "%8s", "a \\ k")
	for _, k := range grid.Fractions {
		fmt.Fprintf(&b, " %8.3g", k)
	}
	b.WriteString("\n")
	for i, a := range grid.Discounts {
		fmt.Fprintf(&b, "%8.2f", a)
		for j := range grid.Fractions {
			fmt.Fprintf(&b, " %8.4f", grid.Mean[i][j])
		}
		b.WriteString("\n")
	}
	return b.String()
}
