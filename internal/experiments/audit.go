package experiments

import (
	"context"
	"fmt"
	"strings"

	"rimarket/internal/analysis"
	"rimarket/internal/core"
	"rimarket/internal/obs"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

// AuditResult summarizes a per-instance competitive-ratio audit: every
// full-period instance schedule the cohort produces is replayed
// through the online algorithm and the restricted offline OPT, and the
// measured ratios are checked against the proven bound.
type AuditResult struct {
	// Fraction is the audited algorithm's checkpoint fraction k.
	Fraction float64
	// Audited counts the instance schedules examined.
	Audited int
	// MaxMeasured is the largest online/OPT ratio observed.
	MaxMeasured float64
	// MeanMeasured is the average ratio.
	MeanMeasured float64
	// Bound is the proven per-instance bound for the experiment's card.
	Bound analysis.Bound
	// AtBoundFraction is the share of instances within 5% of the bound.
	AtBoundFraction float64
}

// RatioAudit measures per-instance competitive ratios on cohort-driven
// schedules for A_{kT}. The horizon is extended to two periods so
// instances reserved during the first period live out their full term
// and have complete schedules.
//
// The two-period cohort is synthesized as the first job of the fan-out
// that audits it (cohortFeed), so users are audited as they are drawn.
// Users fan out over Config.Parallelism workers with runPool's
// contract: the result is identical at any worker count, a failure
// reports the lowest-index failing user's error, and cancelling ctx
// stops synthesis at the next user, drains the in-flight users and
// returns the context's error. Each worker replays on its own Scratch,
// so a user's instance records and busy schedules live in that
// worker's buffers until its next user.
func RatioAudit(ctx context.Context, cfg Config, fraction float64) (AuditResult, error) {
	if err := cfg.Validate(); err != nil {
		return AuditResult{}, err
	}
	policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, fraction)
	if err != nil {
		return AuditResult{}, err
	}
	bound, err := analysis.BoundForInstance(cfg.Instance, fraction, cfg.SellingDiscount)
	if err != nil {
		return AuditResult{}, err
	}

	period := cfg.Instance.PeriodHours
	feed, err := synthFeed(cfg, 2*period)
	if err != nil {
		return AuditResult{}, err
	}

	// Observability: the audit's replays count as engine runs and feed
	// the run-latency histogram like every other driver's; inert
	// without metrics, and never part of the result.
	m := obs.FromContext(ctx)
	engCfg := simulate.Config{
		Instance:        cfg.Instance,
		SellingDiscount: cfg.SellingDiscount,
		RecordSchedules: true,
		Metrics:         m.EngineHook(),
	}
	// Fan out one job per user: plan, replay with schedules, and verify
	// every full-period instance, keeping only the ratios. The plan dies
	// with its job and the schedules are overwritten by the worker's next
	// replay, so the fan-out never holds more than one user's replay per
	// worker.
	ratios := make([][]float64, feed.Len())
	scratch := make([]simulate.Scratch, workerCount(cfg.Parallelism, feed.Len()+1))
	err = feed.run(ctx, cfg.Parallelism, func(w, i int, tr workload.Trace) error {
		u, err := planUser(cfg, i, tr)
		if err != nil {
			return err
		}
		if _, err := obsTotals(m, &scratch[w], tr.Demand, u.NewRes, engCfg, core.KeepReserved{}); err != nil {
			return err
		}
		var rs []float64
		for _, inst := range scratch[w].Records() {
			if inst.Start+period > tr.Len() {
				continue // truncated lifetime: schedule incomplete
			}
			measured, _, err := analysis.VerifyBound(inst.Schedule, policy, cfg.SellingDiscount)
			if err != nil {
				return fmt.Errorf("experiments: user %s instance at %d: %w",
					tr.User, inst.Start, err)
			}
			rs = append(rs, measured)
		}
		ratios[i] = rs
		return nil
	})
	if err != nil {
		return AuditResult{}, err
	}

	// Reduce serially in cohort order, so the float sum and every
	// statistic are bit-identical at any parallelism.
	res := AuditResult{Fraction: fraction, Bound: bound}
	var sum float64
	nearBound := 0
	for _, rs := range ratios {
		for _, measured := range rs {
			res.Audited++
			sum += measured
			if measured > res.MaxMeasured {
				res.MaxMeasured = measured
			}
			if measured >= bound.Ratio*0.95 {
				nearBound++
			}
		}
	}
	if res.Audited == 0 {
		return AuditResult{}, fmt.Errorf("experiments: no full-period instances to audit")
	}
	res.MeanMeasured = sum / float64(res.Audited)
	res.AtBoundFraction = float64(nearBound) / float64(res.Audited)
	return res, nil
}

// RenderAudit renders audits for the paper's three fractions.
func RenderAudit(results []AuditResult) string {
	var b strings.Builder
	b.WriteString("Competitive-ratio audit — measured online/OPT per instance on cohort schedules\n")
	fmt.Fprintf(&b, "%-10s %9s %10s %10s %10s %12s\n",
		"algorithm", "audited", "mean", "max", "bound", "within 5%")
	for _, r := range results {
		name := fmt.Sprintf("A_{%.3gT}", r.Fraction)
		switch r.Fraction {
		case core.Fraction3T4:
			name = "A_{3T/4}"
		case core.FractionT2:
			name = "A_{T/2}"
		case core.FractionT4:
			name = "A_{T/4}"
		}
		fmt.Fprintf(&b, "%-10s %9d %10.4f %10.4f %10.4f %11.1f%%\n",
			name, r.Audited, r.MeanMeasured, r.MaxMeasured, r.Bound.Ratio, r.AtBoundFraction*100)
	}
	return b.String()
}
