package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"rimarket/internal/core"
	"rimarket/internal/experiments"
	"rimarket/internal/pricing"
)

// The suite's axes are riexp's, so the oracle pairs line up: every
// sensitivity fraction is also a sweep-k value, and every sensitivity
// discount a sweep-a value.
var (
	sweepKs      = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875}
	sweepAs      = []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	sweepFees    = []float64{0, 0.06, 0.12, 0.24}
	sensKs       = []float64{0.125, 0.25, 0.5, 0.75, 0.875}
	resellGammas = []float64{0.1, 0.25, 0.5, 0.75, 1.0}
	auditKs      = []float64{core.Fraction3T4, core.FractionT2, core.FractionT4}
)

// cohortConfig is the paper's cohort (300 users over a one-year term)
// or, at test scale, the repository's test cohort, drawn from seed.
func cohortConfig(o options) experiments.Config {
	cfg := experiments.TestScaleConfig()
	if o.full {
		cfg = experiments.DefaultConfig()
	}
	cfg.Seed = o.seed
	cfg.Parallelism = workers()
	return cfg
}

// paperSuite measures riexp's experiments. Set-up is the cold cohort
// plan every entry point starts with; a pass is the whole suite. run_s
// sums, over the suite's entry points, each one's median wall time
// across passes: a burst of machine noise that slows one experiment in
// one pass is outvoted by the other passes instead of moving the run.
func paperSuite(ctx context.Context, o options, t *tally, m metrics, report map[string]any) error {
	cfg := cohortConfig(o)
	if o.trace {
		return traceLayers(ctx, o, scenario{base: cfg, cards: []pricing.InstanceType{cfg.Instance}, policies: allPolicies}, t, m, report)
	}
	setup, err := setups(func() error {
		_, err := experiments.NewCohortPlan(ctx, cfg)
		return err
	})
	if err != nil {
		return err
	}
	steps := stepTimes{}
	ps, err := passes(o.budget, func() error { return suitePass(ctx, cfg, t, steps) })
	if err != nil {
		return err
	}
	ps.set(m, report)
	run := 0.0
	medians := map[string]float64{}
	for name, secs := range steps {
		medians[name] = median(secs)
		run += medians[name]
	}
	m.set("setup_s", setup, "s")
	m.set("run_s", run, "s") // replaces the median whole pass ps.set reported
	report["median_pass_s"] = median(ps.wall)
	report["step_median_s"] = medians
	return nil
}

// stepTimes collects each suite entry point's wall time per pass.
type stepTimes map[string][]float64

// run times one entry point and counts it as an operation.
func (st stepTimes) run(t *tally, name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	st[name] = append(st[name], time.Since(t0).Seconds())
	t.check(err)
	return err
}

// suitePass runs every riexp experiment except market once through the
// package-level entry points riexp calls, renders what riexp would
// print, and checks the seed-independent oracles.
func suitePass(ctx context.Context, cfg experiments.Config, t *tally, st stepTimes) error {
	var out strings.Builder
	if err := st.run(t, "cohort", func() error {
		res, err := experiments.RunCohort(ctx, cfg)
		if err != nil {
			return err
		}
		return renderCohort(&out, cfg, res)
	}); err != nil {
		return err
	}
	var ks, as, fees []experiments.SweepPoint
	if err := st.run(t, "sweep-k", func() (err error) {
		ks, err = experiments.SweepFraction(ctx, cfg, sweepKs)
		out.WriteString(experiments.RenderSweep("sweep-k", "k", ks))
		return err
	}); err != nil {
		return err
	}
	if err := st.run(t, "sweep-a", func() (err error) {
		as, err = experiments.SweepDiscount(ctx, cfg, sweepAs)
		out.WriteString(experiments.RenderSweep("sweep-a", "a", as))
		return err
	}); err != nil {
		return err
	}
	if err := st.run(t, "sweep-fee", func() (err error) {
		fees, err = experiments.SweepMarketFee(ctx, cfg, sweepFees)
		out.WriteString(experiments.RenderSweep("sweep-fee", "fee", fees))
		return err
	}); err != nil {
		return err
	}
	var grid experiments.SensitivityGrid
	if err := st.run(t, "sensitivity", func() (err error) {
		grid, err = experiments.Sensitivity(ctx, cfg, sweepAs, sensKs)
		out.WriteString(experiments.RenderSensitivity(grid))
		return err
	}); err != nil {
		return err
	}
	t.check(checkSensitivity(cfg.SellingDiscount, grid, ks, as))
	if err := st.run(t, "extensions", func() error {
		ext, err := experiments.Extensions(ctx, cfg)
		out.WriteString(experiments.RenderExtensions(ext))
		return err
	}); err != nil {
		return err
	}
	if err := st.run(t, "resell", func() error {
		rows, err := experiments.HourResellComparison(ctx, cfg, resellGammas)
		out.WriteString(experiments.RenderHourResell(rows))
		return err
	}); err != nil {
		return err
	}
	var audits []experiments.AuditResult
	for _, k := range auditKs {
		if err := st.run(t, fmt.Sprintf("audit-%v", k), func() error {
			a, err := experiments.RatioAudit(ctx, cfg, k)
			audits = append(audits, a)
			return err
		}); err != nil {
			return err
		}
		t.check(checkAudit(audits[len(audits)-1]))
	}
	out.WriteString(experiments.RenderAudit(audits))
	if out.Len() == 0 {
		return fmt.Errorf("suite rendered nothing")
	}
	return nil
}

// renderCohort renders the cohort-backed tables and figures the way
// riexp -exp all does.
func renderCohort(out *strings.Builder, cfg experiments.Config, res *experiments.CohortResult) error {
	card, err := pricing.StandardLinuxUSEast().Lookup(cfg.Instance.Name)
	if err != nil {
		card = cfg.Instance
	}
	out.WriteString(experiments.Table1(card))
	out.WriteString(experiments.RenderFig2(experiments.Fig2(res)))
	for _, p := range experiments.SellingPolicies {
		sum, err := experiments.Fig3(res.Users, p)
		if err != nil {
			return err
		}
		out.WriteString(experiments.RenderFig3(sum))
	}
	for _, fg := range experiments.Fig4(res) {
		out.WriteString(experiments.RenderFig4(fg))
	}
	t2, err := experiments.Table2(res)
	if err != nil {
		return err
	}
	out.WriteString(t2)
	out.WriteString(experiments.RenderTable3(experiments.Table3(res)))
	return nil
}

// checkSensitivity holds the grid to the sweeps it generalizes: its row
// at the configured discount a is the sweep over k, and its k = 0.75
// column is the sweep over a of A_{3T/4}. Both are the same engine runs
// on the same plan, so they must agree exactly.
func checkSensitivity(a float64, grid experiments.SensitivityGrid, ks, as []experiments.SweepPoint) error {
	row, col := indexOf(grid.Discounts, a), indexOf(grid.Fractions, core.Fraction3T4)
	if row < 0 || col < 0 {
		return fmt.Errorf("sensitivity grid lacks a=%v or k=0.75", a)
	}
	for j, k := range grid.Fractions {
		p, ok := pointAt(ks, k)
		if !ok || p.MeanNormalized != grid.Mean[row][j] {
			return fmt.Errorf("sensitivity (a=%v, k=%v) = %v, sweep-k says %v", a, k, grid.Mean[row][j], p.MeanNormalized)
		}
	}
	for i, d := range grid.Discounts {
		p, ok := pointAt(as, d)
		if !ok || p.MeanNormalized != grid.Mean[i][col] {
			return fmt.Errorf("sensitivity (a=%v, k=0.75) = %v, sweep-a says %v", d, grid.Mean[i][col], p.MeanNormalized)
		}
	}
	return nil
}

// checkAudit holds a competitive-ratio audit to its proven bound.
func checkAudit(a experiments.AuditResult) error {
	if a.Audited == 0 || a.MaxMeasured > a.Bound.Ratio {
		return fmt.Errorf("audit k=%v: %d instances, max ratio %v above bound %v", a.Fraction, a.Audited, a.MaxMeasured, a.Bound.Ratio)
	}
	return nil
}

func indexOf(xs []float64, x float64) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

func pointAt(ps []experiments.SweepPoint, v float64) (experiments.SweepPoint, bool) {
	for _, p := range ps {
		if p.Value == v {
			return p, true
		}
	}
	return experiments.SweepPoint{}, false
}
