package experiments

import (
	"context"
	"fmt"
	"strings"

	"rimarket/internal/core"
)

// ExtensionRow summarizes one selling policy in the future-work
// comparison.
type ExtensionRow struct {
	// Policy names the algorithm.
	Policy string
	// MeanNormalized is the cohort-mean cost normalized to Keep-Reserved.
	MeanNormalized float64
	// FracSaved is the fraction of users saving.
	FracSaved float64
	// WorstIncrease is the largest normalized-cost excess over 1.
	WorstIncrease float64
}

// Extensions evaluates the paper's future-work directions on the
// plan's cohort: one grid cell per candidate policy, all sharing the
// plan's cached reservation plans and the grid's Keep-Reserved trunks.
func (p *CohortPlan) Extensions(ctx context.Context) ([]ExtensionRow, error) {
	cells, err := p.extensionCells()
	if err != nil {
		return nil, err
	}
	grid, err := p.RunGridNamed(ctx, "extensions", cells)
	if err != nil {
		return nil, err
	}

	rows := make([]ExtensionRow, len(cells))
	for i, c := range cells {
		row := ExtensionRow{
			Policy:         c.Name,
			MeanNormalized: grid[i].MeanNorm(),
			FracSaved:      grid[i].FracSaved(),
		}
		for _, v := range grid[i].Norm {
			if v-1 > row.WorstIncrease {
				row.WorstIncrease = v - 1
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// extensionCells are the comparison's cells: the paper's A_{3T/4} and
// A_{T/4}, the multi-checkpoint policy and A_{rand} under three
// fraction distributions.
func (p *CohortPlan) extensionCells() ([]Cell, error) {
	cfg := p.cfg
	a3, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	a4, err := core.NewAT4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	multi, err := core.NewPaperMultiThreshold(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	randExp, err := core.NewRandomized(cfg.Instance, cfg.SellingDiscount, core.ExponentialFractions{}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	randUni, err := core.NewRandomized(cfg.Instance, cfg.SellingDiscount,
		core.UniformFractions{Lo: 0.2, Hi: 0.8}, cfg.Seed)
	if err != nil {
		return nil, err
	}
	randPaper, err := core.NewRandomized(cfg.Instance, cfg.SellingDiscount, core.PaperFractions(), cfg.Seed)
	if err != nil {
		return nil, err
	}

	engCfg := p.engineConfig()
	return []Cell{
		{Name: PolicyA3T4, Policy: a3, Engine: engCfg},
		{Name: PolicyAT4, Policy: a4, Engine: engCfg},
		{Name: "Multi{T/4,T/2,3T/4}", Policy: multi, Engine: engCfg},
		{Name: "A_rand " + randExp.Dist().String(), Policy: randExp, Engine: engCfg},
		{Name: "A_rand " + randUni.Dist().String(), Policy: randUni, Engine: engCfg},
		{Name: "A_rand " + randPaper.Dist().String(), Policy: randPaper, Engine: engCfg},
	}, nil
}

// Extensions is NewCohortPlan plus (*CohortPlan).Extensions, kept only
// for the perfbench suite (see RunCohort).
func Extensions(ctx context.Context, cfg Config) ([]ExtensionRow, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.Extensions(ctx)
}

// RenderExtensions renders the future-work comparison.
func RenderExtensions(rows []ExtensionRow) string {
	var b strings.Builder
	b.WriteString("Future-work extensions vs the paper's fixed checkpoints\n")
	fmt.Fprintf(&b, "%-26s %16s %12s %14s\n", "policy", "mean cost (norm)", "users saving", "worst increase")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-26s %16.4f %11.0f%% %+13.1f%%\n",
			row.Policy, row.MeanNormalized, row.FracSaved*100, row.WorstIncrease*100)
	}
	return b.String()
}
