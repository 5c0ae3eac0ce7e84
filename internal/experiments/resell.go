package experiments

import (
	"context"
	"fmt"
	"strings"

	"rimarket/internal/core"
	"rimarket/internal/simulate"
	"rimarket/internal/stats"
)

// The paper's related work (Section II) discusses an alternative to
// selling whole remaining periods: reselling a reserved instance's
// *idle hours* pay-as-you-go (Zhang et al., ICWS 2017; Wang et al.,
// TPDS 2015). The paper dismisses it as "not supported by public IaaS
// cloud providers" but never compares costs. This file implements that
// baseline so the comparison the paper only argues qualitatively can
// be measured: the user keeps every reservation and earns gamma * p
// for each idle reserved hour it manages to resell.

// HourResellRow compares one policy against the hour-reselling
// baseline at one resale-efficiency setting.
type HourResellRow struct {
	// Gamma is the fraction of the on-demand rate an idle hour earns
	// (market efficiency of the hypothetical hour-resale broker).
	Gamma float64
	// ResellMean is the hour-reselling baseline's mean normalized cost.
	ResellMean float64
	// A3T4Mean, AT4Mean are the paper's algorithms on the same cohort.
	A3T4Mean, AT4Mean float64
	// CrossoverBeaten reports whether hour-reselling beats the paper's
	// best algorithm at this gamma.
	CrossoverBeaten bool
}

// HourResellComparison evaluates the idle-hour-reselling baseline on
// the plan's cohort. The baseline's cost is derived from the
// Keep-Reserved baseline the grid's trunks cache: it keeps every
// reservation and recoups gamma * p per idle reserved hour, so only the
// two period-selling policies need engine runs.
func (p *CohortPlan) HourResellComparison(ctx context.Context, gammas []float64) ([]HourResellRow, error) {
	if len(gammas) == 0 {
		return nil, fmt.Errorf("experiments: no gamma values")
	}
	for _, g := range gammas {
		if g < 0 || g > 1 {
			return nil, fmt.Errorf("experiments: gamma %v outside [0, 1]", g)
		}
	}
	cells, err := p.resellCells()
	if err != nil {
		return nil, err
	}
	grid, err := p.RunGridNamed(ctx, "resell", cells)
	if err != nil {
		return nil, err
	}
	keeps, err := p.KeepStats(ctx, cells[0].Engine) // filled by the grid's trunks
	if err != nil {
		return nil, err
	}

	od := p.cfg.Instance.OnDemandHourly
	rows := make([]HourResellRow, 0, len(gammas))
	for _, gamma := range gammas {
		var resell, a3n, a4n []float64
		for i, ks := range keeps {
			if ks.Total == 0 {
				continue
			}
			resellCost := ks.Total - gamma*od*float64(ks.IdleHours)
			resell = append(resell, resellCost/ks.Total)
			a3n = append(a3n, grid[0].Norm[i])
			a4n = append(a4n, grid[1].Norm[i])
		}
		row := HourResellRow{
			Gamma:      gamma,
			ResellMean: stats.Mean(resell),
			A3T4Mean:   stats.Mean(a3n),
			AT4Mean:    stats.Mean(a4n),
		}
		row.CrossoverBeaten = row.ResellMean < row.AT4Mean
		rows = append(rows, row)
	}
	return rows, nil
}

// resellCells are the comparison's two period-selling cells, A_{3T/4}
// and A_{T/4}, at the plan's discount and no market fee.
func (p *CohortPlan) resellCells() ([]Cell, error) {
	cfg := p.cfg
	a3, err := core.NewA3T4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	a4, err := core.NewAT4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return nil, err
	}
	engCfg := simulate.Config{Instance: cfg.Instance, SellingDiscount: cfg.SellingDiscount}
	return []Cell{
		{Name: PolicyA3T4, Policy: a3, Engine: engCfg},
		{Name: PolicyAT4, Policy: a4, Engine: engCfg},
	}, nil
}

// HourResellComparison is NewCohortPlan plus
// (*CohortPlan).HourResellComparison, kept only for the perfbench suite
// (see RunCohort).
func HourResellComparison(ctx context.Context, cfg Config, gammas []float64) ([]HourResellRow, error) {
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return plan.HourResellComparison(ctx, gammas)
}

// RenderHourResell renders the related-work comparison.
func RenderHourResell(rows []HourResellRow) string {
	var b strings.Builder
	b.WriteString("Related-work baseline — reselling idle hours pay-as-you-go vs selling the period\n")
	fmt.Fprintf(&b, "%-8s %14s %12s %12s %10s\n",
		"gamma", "hour-resell", "A_{3T/4}", "A_{T/4}", "winner")
	for _, r := range rows {
		winner := "period sale"
		if r.CrossoverBeaten {
			winner = "hour resell"
		}
		fmt.Fprintf(&b, "%-8.2f %14.4f %12.4f %12.4f %10s\n",
			r.Gamma, r.ResellMean, r.A3T4Mean, r.AT4Mean, winner)
	}
	return b.String()
}
