// Command riexp regenerates the paper's tables and figures.
//
// Usage:
//
//	riexp -exp all                 # everything, test scale (fast)
//	riexp -exp table3 -scale full  # one experiment at the paper's scale
//	riexp -exp fig3a -pergroup 50  # override the cohort size
//
// Experiments: table1, table2, table3, fig2, fig3a, fig3b, fig3c,
// fig4a, fig4b, fig4c, bounds, sweep-k, sweep-a, sweep-fee,
// extensions, market, sensitivity, audit, resell, all. Every one but
// table1, bounds and audit runs on the one cohort plan the flags
// build: the synthetic cohort, or the traces under -tracedir.
//
// Exit codes: 0 on success, 1 on a run error, 2 on command-line
// misuse, 3 when the run produced usable partial results — a
// best-effort trace load skipped files, or a -spill run was
// interrupted with completed cells safe on disk. SIGINT/SIGTERM cancel
// the run gracefully: in-flight users drain, the error reports which
// grid cells completed, and with -spill those cells are already
// spilled, so `riexp -resume DIR` continues where the signal landed.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"flag"

	"rimarket/internal/analysis"
	"rimarket/internal/cli"
	"rimarket/internal/core"
	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/marketplace"
	"rimarket/internal/obs"
	"rimarket/internal/pricing"
)

func main() {
	ctx, stop := cli.SignalContext()
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "riexp:", err)
	}
	os.Exit(cli.ExitCode(err))
}

// params is the parsed riexp command line; the flag set collapses to
// this struct so the observed part of the run (runParsed) is separable
// from flag parsing and the obs session bracketing it.
type params struct {
	exp             string
	cohort          cli.CohortFlags
	traceErr        string
	traceBud        int
	jsonOut, csvOut string
	spill, resume   string
	// feeSet records an explicit -fee, which -exp market refuses.
	feeSet bool
}

func run(ctx context.Context, args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("riexp", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p params
	fs.StringVar(&p.exp, "exp", "all", "experiment to run (table1|table2|table3|fig2|fig3a|fig3b|fig3c|fig4a|fig4b|fig4c|bounds|sweep-k|sweep-a|sweep-fee|extensions|market|sensitivity|audit|resell|all)")
	p.cohort.Register(fs)
	fs.StringVar(&p.traceErr, "trace-errors", "strict", "error policy for -tracedir files: strict (fail on the first bad file) or best-effort (skip bad files, warn, exit 3)")
	fs.IntVar(&p.traceBud, "trace-error-budget", 0, "max files best-effort may skip before failing anyway; 0 means unlimited")
	fs.StringVar(&p.jsonOut, "json", "", "also write the full cohort result as JSON to this file (cohort-result experiments only)")
	fs.StringVar(&p.csvOut, "csv", "", "also write per-user costs as CSV to this file (cohort-result experiments only)")
	fs.StringVar(&p.spill, "spill", "", "stream each completed grid cell to a resumable on-disk store under this `directory` (one subdirectory per grid); an interrupted run exits 3 and can be continued with -resume")
	fs.StringVar(&p.resume, "resume", "", "resume an interrupted -spill run from this `directory`: valid spilled cells are loaded, only missing or invalid cells are recomputed, and new cells keep spilling there")
	var obsFlags cli.ObsFlags
	obsFlags.Register(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return cli.Usage(err)
	}
	fs.Visit(func(f *flag.Flag) { p.feeSet = p.feeSet || f.Name == "fee" })

	// The session brackets the whole parsed run: its metrics ride ctx
	// into the drivers, and Finish writes the manifest with the run's
	// outcome — including usage errors from bad flag values below.
	sess, err := obsFlags.Start("riexp", args, stderr)
	if err != nil {
		return err
	}
	return sess.Finish(spillOutcome(runParsed(sess.Context(ctx), p, sess, w, stderr), p))
}

// spillOutcome maps an interrupted spilling run onto the partial exit
// code: the cells completed before the signal are safe on disk, so the
// run produced usable — resumable — partial results, which is exactly
// what exit code 3 means. Runs without a spill store keep the plain
// cancellation error (exit 1): nothing was kept, nothing is resumable.
func spillOutcome(err error, p params) error {
	dir := p.spill
	if p.resume != "" {
		dir = p.resume
	}
	if err == nil || dir == "" {
		return err
	}
	var ce *experiments.CancelError
	if !errors.As(err, &ce) {
		return err
	}
	return fmt.Errorf("%w; completed cells are spilled under %s — continue with -resume %s: %w",
		err, dir, dir, cli.ErrPartial)
}

// planDrivers are the experiments that render one driver run on the
// cohort plan (a failed run's rendering is dropped). cohortExps render
// the plan's CohortResult, the one result -json and -csv export. The
// rest — table1, bounds and audit — read no cohort plan.
var planDrivers = map[string]func(context.Context, *experiments.CohortPlan) (string, error){
	"sweep-k": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		points, err := plan.SweepFraction(ctx, []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875})
		return experiments.RenderSweep("Ablation — checkpoint fraction k of A_{kT}", "k", points), err
	},
	"sweep-a": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		points, err := plan.SweepDiscount(ctx, []float64{0.2, 0.4, 0.6, 0.8, 1.0})
		return experiments.RenderSweep("Ablation — selling discount a of A_{3T/4}", "a", points), err
	},
	"sweep-fee": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		points, err := plan.SweepMarketFee(ctx, []float64{0, 0.06, 0.12, 0.24})
		return experiments.RenderSweep("Ablation — marketplace fee under A_{3T/4}", "fee", points), err
	},
	"resell": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		rows, err := plan.HourResellComparison(ctx, []float64{0.1, 0.25, 0.5, 0.75, 1.0})
		return experiments.RenderHourResell(rows), err
	},
	"sensitivity": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		grid, err := plan.Sensitivity(ctx, []float64{0.2, 0.4, 0.6, 0.8, 1.0}, []float64{0.125, 0.25, 0.5, 0.75, 0.875})
		return experiments.RenderSensitivity(grid), err
	},
	"market": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		points, err := plan.MarketSession(ctx, []float64{0.05, 0.2, 1, 5})
		return experiments.RenderMarket(points), err
	},
	"extensions": func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
		rows, err := plan.Extensions(ctx)
		return experiments.RenderExtensions(rows), err
	},
}

var cohortExps = map[string]bool{
	"table2": true, "table3": true, "fig2": true, "fig3a": true, "fig3b": true, "fig3c": true,
	"fig4a": true, "fig4b": true, "fig4c": true, "all": true,
}

func runParsed(ctx context.Context, p params, sess *cli.ObsSession, w, stderr io.Writer) error {
	var loadOpts gtrace.LoadOptions
	switch p.traceErr {
	case "strict":
		loadOpts.Policy = gtrace.Strict
	case "best-effort":
		loadOpts.Policy = gtrace.BestEffort
	default:
		return cli.Usagef("unknown -trace-errors policy %q (want strict or best-effort)", p.traceErr)
	}
	if p.traceBud < 0 {
		return cli.Usagef("-trace-error-budget %d must be non-negative", p.traceBud)
	}
	loadOpts.FailureBudget = p.traceBud

	cfg, err := p.cohort.Config()
	if err != nil {
		return err
	}
	if p.spill != "" && p.resume != "" {
		return cli.Usagef("-spill and -resume are mutually exclusive: -resume already keeps spilling into its directory")
	}
	cfg.SpillDir = p.spill
	if p.resume != "" {
		cfg.SpillDir = p.resume
		cfg.Resume = true
	}

	// Record the resolved experiment parameters (not just the raw argv)
	// in the run manifest: this is the provenance a result file needs.
	if mf := sess.Manifest(); mf != nil {
		mf.Seed = cfg.Seed
		mf.Config = cfg
	}

	driver := planDrivers[p.exp]
	noCohort := p.exp == "table1" || p.exp == "bounds" || p.exp == "audit"
	if driver == nil && !noCohort && !cohortExps[p.exp] {
		return cli.Usagef("unknown experiment %q", p.exp)
	}
	if noCohort && p.cohort.TraceDir != "" {
		return cli.Usagef("-exp %s reads no cohort, so -tracedir does not apply", p.exp)
	}
	if p.exp == "market" && p.feeSet {
		return cli.Usagef("-exp market lists at the fixed marketplace.AmazonFee (%g), so -fee does not apply", marketplace.AmazonFee)
	}
	if !cohortExps[p.exp] && (p.jsonOut != "" || p.csvOut != "") {
		return cli.Usagef("-json and -csv export a cohort result, which -exp %s does not build", p.exp)
	}

	// Table I always reports the real (unscaled) price card — the test
	// scale shrinks the period and upfront proportionally for speed, but
	// the paper's pricing table is about the actual Jan-2018 sheet.
	table1Card, err := pricing.StandardLinuxUSEast().Lookup(cfg.Instance.Name)
	if err != nil {
		table1Card = cfg.Instance
	}
	switch p.exp {
	case "table1":
		fmt.Fprint(w, experiments.Table1(table1Card))
		return nil
	case "bounds":
		return printBounds(w, cfg)
	case "audit":
		var results []experiments.AuditResult
		for _, k := range []float64{core.Fraction3T4, core.FractionT2, core.FractionT4} {
			r, err := experiments.RatioAudit(ctx, cfg, k)
			if err != nil {
				return err
			}
			results = append(results, r)
		}
		fmt.Fprint(w, experiments.RenderAudit(results))
		return nil
	}

	plan, report, err := cli.LoadPlan(ctx, cfg, p.cohort.TraceDir, loadOpts)
	if mf := sess.Manifest(); mf != nil {
		mf.Trace = traceIngest(report)
	}
	if report.Partial() {
		fmt.Fprintf(stderr, "riexp: warning: partial ingestion: %d of %d trace files skipped:\n",
			len(report.Skipped), len(report.Skipped)+len(report.Loaded))
		for _, sk := range report.Skipped {
			fmt.Fprintf(stderr, "riexp: warning:   %s: %v\n", sk.File, sk.Err)
		}
	}
	if err != nil {
		return err
	}
	if driver != nil {
		var out string
		if out, err = driver(ctx, plan); err == nil {
			fmt.Fprint(w, out)
		}
	} else {
		err = printCohort(ctx, w, plan, table1Card, p)
	}
	if err != nil {
		return err
	}
	if report.Partial() {
		return fmt.Errorf("%d of %d trace files skipped: %w",
			len(report.Skipped), len(report.Skipped)+len(report.Loaded), cli.ErrPartial)
	}
	return nil
}

// printCohort evaluates the plan's cohort, exports it as asked and
// renders the cohort-result experiment.
func printCohort(ctx context.Context, w io.Writer, plan *experiments.CohortPlan, table1Card pricing.InstanceType, p params) error {
	res, err := plan.Cohort(ctx)
	if err != nil {
		return err
	}
	if err := exportResult(res, p.jsonOut, p.csvOut); err != nil {
		return err
	}
	return printExperiment(w, plan.Config(), table1Card, res, p.exp)
}

// traceIngest converts a gtrace load report to the manifest's
// dependency-free mirror (obs deliberately does not import gtrace).
func traceIngest(report *gtrace.LoadReport) *obs.TraceIngest {
	if report == nil {
		return nil
	}
	ti := &obs.TraceIngest{Loaded: report.Loaded}
	for _, sk := range report.Skipped {
		ti.Skipped = append(ti.Skipped, obs.SkippedFile{File: sk.File, Err: sk.Err.Error()})
	}
	return ti
}

// printExperiment renders the cohort-backed experiments.
func printExperiment(w io.Writer, cfg experiments.Config, table1Card pricing.InstanceType, res *experiments.CohortResult, exp string) error {
	switch exp {
	case "table2":
		out, err := experiments.Table2(res)
		if err != nil {
			return err
		}
		fmt.Fprint(w, out)
	case "table3":
		fmt.Fprint(w, experiments.RenderTable3(experiments.Table3(res)))
	case "fig2":
		fmt.Fprint(w, experiments.RenderFig2(experiments.Fig2(res)))
	case "fig3a", "fig3b", "fig3c":
		policy := map[string]string{
			"fig3a": experiments.PolicyA3T4,
			"fig3b": experiments.PolicyAT2,
			"fig3c": experiments.PolicyAT4,
		}[exp]
		sum, err := experiments.Fig3(res.Users, policy)
		if err != nil {
			return err
		}
		fmt.Fprint(w, experiments.RenderFig3(sum))
	case "fig4a", "fig4b", "fig4c":
		idx := map[string]int{"fig4a": 0, "fig4b": 1, "fig4c": 2}[exp]
		fmt.Fprint(w, experiments.RenderFig4(experiments.Fig4(res)[idx]))
	case "all":
		fmt.Fprint(w, experiments.Table1(table1Card))
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.RenderFig2(experiments.Fig2(res)))
		fmt.Fprintln(w)
		for _, p := range experiments.SellingPolicies {
			sum, err := experiments.Fig3(res.Users, p)
			if err != nil {
				return err
			}
			fmt.Fprint(w, experiments.RenderFig3(sum))
			fmt.Fprintln(w)
		}
		for _, fg := range experiments.Fig4(res) {
			fmt.Fprint(w, experiments.RenderFig4(fg))
			fmt.Fprintln(w)
		}
		t2, err := experiments.Table2(res)
		if err != nil {
			return err
		}
		fmt.Fprint(w, t2)
		fmt.Fprintln(w)
		fmt.Fprint(w, experiments.RenderTable3(experiments.Table3(res)))
		fmt.Fprintln(w)
		if err := printBounds(w, cfg); err != nil {
			return err
		}
	default:
		return cli.Usagef("unknown experiment %q", exp)
	}
	return nil
}

// exportResult writes optional machine-readable dumps of the cohort.
func exportResult(res *experiments.CohortResult, jsonPath, csvPath string) error {
	write := func(path string, fn func(io.Writer, *experiments.CohortResult) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f, res); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(jsonPath, experiments.WriteJSON); err != nil {
		return err
	}
	return write(csvPath, experiments.WriteUsersCSV)
}

// printBounds reports the proven competitive ratios for the catalog
// and the experiment's instance, plus the adversarially achieved
// ratios and the randomized algorithm's expected ratio.
func printBounds(w io.Writer, cfg experiments.Config) error {
	fmt.Fprintf(w, "Competitive-ratio bounds (a = %.2f)\n", cfg.SellingDiscount)
	cat := pricing.StandardLinuxUSEast()
	stats := cat.Stats()
	fmt.Fprintf(w, "catalog: %d types, alpha in [%.3f, %.3f], theta in [%.2f, %.2f]\n",
		cat.Len(), stats.AlphaMin, stats.AlphaMax, stats.ThetaMin, stats.ThetaMax)
	for _, k := range []float64{core.Fraction3T4, core.FractionT2, core.FractionT4} {
		rep, err := analysis.AnalyzeCatalog(cat, k, cfg.SellingDiscount)
		if err != nil {
			return err
		}
		policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, k)
		if err != nil {
			return err
		}
		worst, err := analysis.WorstMeasuredRatio(policy, cfg.SellingDiscount)
		if err != nil {
			return err
		}
		instBound, err := analysis.BoundForInstance(cfg.Instance, k, cfg.SellingDiscount)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s catalog worst bound %.4f (%s, %s); %s bound %.4f, adversarial measured %.4f\n",
			policy.Name(), rep.WorstBound.Ratio, rep.WorstInstance, rep.WorstBound.Regime,
			cfg.Instance.Name, instBound.Ratio, worst)
	}

	// The Section VII speculation, quantified: the randomized
	// algorithm's expected ratio on the fixed algorithm's own worst
	// cases, against an unrestricted OPT.
	randomized, err := core.NewRandomized(cfg.Instance, cfg.SellingDiscount, core.ExponentialFractions{}, cfg.Seed)
	if err != nil {
		return err
	}
	fixed, err := core.NewAT4(cfg.Instance, cfg.SellingDiscount)
	if err != nil {
		return err
	}
	sellMistake, keepMistake, err := analysis.AdversarialSchedules(fixed)
	if err != nil {
		return err
	}
	for _, c := range []struct {
		name  string
		sched []bool
	}{
		{name: "sell-mistake", sched: sellMistake},
		{name: "keep-mistake", sched: keepMistake},
	} {
		fixedRatio, err := analysis.FixedUnrestrictedRatio(c.sched, fixed)
		if err != nil {
			return err
		}
		randRatio, err := analysis.RandomizedExpectedRatio(c.sched, randomized, 128)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "randomized vs A_{T/4} on its %-12s worst case (unrestricted OPT): fixed %.4f, E[randomized] %.4f\n",
			c.name, fixedRatio, randRatio)
	}
	return nil
}
