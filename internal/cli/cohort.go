package cli

import (
	"context"
	"flag"
	"fmt"
	"os"

	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/pricing"
)

// CohortFlags is the cohort flag set riexp and rid share: the flags
// that shape the experiment configuration and where its users come
// from. Both commands resolve it through Config and LoadPlan, so a rid
// snapshot and a riexp run from the same flags plan the same cohort.
type CohortFlags struct {
	Scale         string
	PerGroup      int
	Seed          int64
	Discount, Fee float64
	Term          int
	Parallelism   int
	TraceDir      string
}

// Register installs the shared cohort flags on fs.
func (f *CohortFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Scale, "scale", "test", "cohort scale: test (fast) or full (paper: 300 users, 1-year horizon)")
	fs.IntVar(&f.PerGroup, "pergroup", 0, "override users per fluctuation group")
	fs.Int64Var(&f.Seed, "seed", 0, "override cohort seed")
	fs.Float64Var(&f.Discount, "a", 0, "override selling discount a in (0, 1]")
	fs.Float64Var(&f.Fee, "fee", 0, "marketplace fee in [0, 1) applied to sale income")
	fs.IntVar(&f.Term, "term", 1, "reservation term in years (1 or 3)")
	fs.IntVar(&f.Parallelism, "parallelism", 0, "worker goroutines planning and evaluating users and grid cells; 0 means GOMAXPROCS (results are identical at any setting)")
	fs.StringVar(&f.TraceDir, "tracedir", "", "plan real trace files from this `directory` instead of the synthetic cohort")
}

// Config resolves the flags into an experiment configuration; bad
// values are usage errors.
func (f CohortFlags) Config() (experiments.Config, error) {
	var cfg experiments.Config
	switch f.Scale {
	case "test":
		cfg = experiments.TestScaleConfig()
	case "full":
		cfg = experiments.DefaultConfig()
	default:
		return cfg, Usagef("unknown scale %q (want test or full)", f.Scale)
	}
	switch f.Term {
	case 1:
		// The default 1-year card is already in place.
	case 3:
		three, err := pricing.ThreeYearTerm(pricing.D2XLarge())
		if err != nil {
			return cfg, err
		}
		if f.Scale == "test" {
			// Apply the same 6x shrink as TestScaleConfig, preserving
			// alpha and theta.
			three.PeriodHours /= 6
			three.Upfront /= 6
		}
		cfg.Instance = three
		cfg.Hours = three.PeriodHours
	default:
		return cfg, Usagef("unsupported term %d (want 1 or 3)", f.Term)
	}
	if f.PerGroup > 0 {
		cfg.PerGroup = f.PerGroup
	}
	if f.Seed != 0 {
		cfg.Seed = f.Seed
	}
	if f.Discount != 0 {
		cfg.SellingDiscount = f.Discount
	}
	cfg.MarketFee = f.Fee
	cfg.Parallelism = f.Parallelism
	return cfg, nil
}

// LoadPlan builds the cohort plan the flags name: the synthetic cohort
// when dir is empty, otherwise the trace files in dir (EC2 usage logs
// and columnar cohort stores alike) loaded by gtrace.LoadFS under opts
// and planned with experiments.PlanTraces in user-name order. The load
// report is returned once the load succeeds, even if planning then
// fails; a load failure returns neither plan nor report.
func LoadPlan(ctx context.Context, cfg experiments.Config, dir string, opts gtrace.LoadOptions) (*experiments.CohortPlan, *gtrace.LoadReport, error) {
	if dir == "" {
		plan, err := experiments.NewCohortPlan(ctx, cfg)
		return plan, nil, err
	}
	traces, report, err := gtrace.LoadFS(os.DirFS(dir), opts)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", dir, err)
	}
	plan, err := experiments.PlanTraces(ctx, cfg, traces)
	return plan, report, err
}
