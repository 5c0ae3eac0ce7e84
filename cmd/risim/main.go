// Command risim simulates one user's instance costs over a demand
// trace: it plans reservations with a chosen purchasing behavior, then
// compares every selling policy's total cost.
//
// Usage:
//
//	risim -trace usage.csv                     # EC2-usage-log format
//	risim -synthetic volatile -hours 2000      # synthetic demand
//	risim -instance m4.xlarge -behavior wang-online -a 0.6
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strconv"

	"rimarket/internal/cli"
	"rimarket/internal/core"
	"rimarket/internal/gtrace"
	"rimarket/internal/pricing"
	"rimarket/internal/purchasing"
	"rimarket/internal/simulate"
	"rimarket/internal/workload"
)

func main() {
	if err := runStderr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "risim:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run keeps the historical test entry point; observability notices
// (pprof address) are discarded without a stderr.
func run(args []string, w io.Writer) error { return runStderr(args, w, io.Discard) }

func runStderr(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("risim", flag.ContinueOnError)
	var (
		tracePath = fs.String("trace", "", "EC2-usage-log CSV to simulate (hour,instances)")
		synthetic = fs.String("synthetic", "", "generate demand instead: stable, moderate or volatile")
		hours     = fs.Int("hours", 0, "horizon in hours (default: one reservation period)")
		instance  = fs.String("instance", "d2.xlarge", "instance type from the built-in catalog")
		behavior  = fs.String("behavior", "all-reserved", "purchasing behavior: all-reserved, random, wang-online, wang-variant")
		discount  = fs.Float64("a", 0.8, "selling discount a in (0, 1]")
		extra     = fs.String("policy", "", "add one extension policy to the comparison: multi, rand-exp, rand-uniform, or a fraction like 0.6 for A_{0.6T}")
		dump      = fs.String("dump", "", "write the A_{3T/4} run's per-hour accounting (d,n,r,o,s) as CSV to this file")
		fee       = fs.Float64("fee", 0, "marketplace fee in [0, 1)")
		seed      = fs.Int64("seed", 1, "seed for synthetic demand and random behavior")
	)
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	return obsFlags.Run("risim", args, stderr, func(sess *cli.ObsSession) error {
		return simulateCmd(w, sess, *tracePath, *synthetic, *hours, *instance, *behavior, *discount, *extra, *dump, *fee, *seed)
	})
}

// simulateCmd is the parsed risim run, bracketed by the obs session.
func simulateCmd(w io.Writer, sess *cli.ObsSession, tracePath, synthetic string, hours int, instance, behavior string, discount float64, extra, dump string, fee float64, seed int64) error {
	if mf := sess.Manifest(); mf != nil {
		mf.Seed = seed
	}

	it, err := pricing.StandardLinuxUSEast().Lookup(instance)
	if err != nil {
		return err
	}
	horizon := hours
	if horizon <= 0 {
		horizon = it.PeriodHours
	}

	tr, err := loadTrace(tracePath, synthetic, horizon, seed)
	if err != nil {
		return err
	}
	if tr.Len() > horizon {
		tr = tr.Clip(horizon)
	}
	if tr.Len() < horizon {
		padded := make([]int, horizon)
		copy(padded, tr.Demand)
		tr.Demand = padded
	}

	planner, err := plannerFor(behavior, it, seed)
	if err != nil {
		return err
	}
	newRes, err := purchasing.PlanReservations(tr.Demand, it.PeriodHours, planner)
	if err != nil {
		return err
	}
	reserved := 0
	for _, n := range newRes {
		reserved += n
	}

	fmt.Fprintf(w, "user %s: %d hours, peak demand %d, sigma/mu %.2f (%v)\n",
		tr.User, tr.Len(), tr.MaxDemand(), tr.FluctuationRatio(), workload.Classify(tr))
	fmt.Fprintf(w, "instance %s: p=$%.4g/h, R=$%.4g, alpha=%.3f, T=%dh; behavior %s reserved %d\n",
		it.Name, it.OnDemandHourly, it.Upfront, it.Alpha(), it.PeriodHours, behavior, reserved)

	if horizon <= it.PeriodHours/4 {
		fmt.Fprintf(w, "note: horizon %d h is not past the earliest checkpoint (T/4 = %d h); no selling decision can occur — raise -hours or pick a shorter-period instance\n",
			horizon, it.PeriodHours/4)
	}

	policies, err := allPolicies(it, discount)
	if err != nil {
		return err
	}
	if extra != "" {
		np, err := extraPolicy(extra, it, discount, seed)
		if err != nil {
			return err
		}
		policies = append(policies, np)
	}
	cfg := simulate.Config{Instance: it, SellingDiscount: discount, MarketFee: fee, Metrics: sess.Engine()}
	var keepCost float64
	fmt.Fprintf(w, "\n%-18s %12s %12s %10s %8s\n", "policy", "total cost", "vs keep", "on-demand", "sold")
	for _, np := range policies {
		res, err := simulate.Run(tr.Demand, newRes, cfg, np.policy)
		if err != nil {
			return err
		}
		if dump != "" && np.name == "A_{3T/4}" {
			if err := dumpHours(dump, tr.Demand, newRes, it.PeriodHours, res); err != nil {
				return err
			}
		}
		total := res.Cost.Total()
		if np.name == "Keep-Reserved" {
			keepCost = total
		}
		rel := "-"
		if keepCost != 0 {
			rel = fmt.Sprintf("%.4f", total/keepCost)
		}
		fmt.Fprintf(w, "%-18s %12.2f %12s %10.2f %8d\n",
			np.name, total, rel, res.Cost.OnDemand, res.SoldCount())
	}
	return nil
}

type namedPolicy struct {
	name   string
	policy simulate.SellingPolicy
}

func allPolicies(it pricing.InstanceType, a float64) ([]namedPolicy, error) {
	a3, err := core.NewA3T4(it, a)
	if err != nil {
		return nil, err
	}
	a2, err := core.NewAT2(it, a)
	if err != nil {
		return nil, err
	}
	a4, err := core.NewAT4(it, a)
	if err != nil {
		return nil, err
	}
	s3, err := core.NewAllSelling(core.Fraction3T4)
	if err != nil {
		return nil, err
	}
	return []namedPolicy{
		{name: "Keep-Reserved", policy: core.KeepReserved{}},
		{name: "A_{3T/4}", policy: a3},
		{name: "A_{T/2}", policy: a2},
		{name: "A_{T/4}", policy: a4},
		{name: "All-Selling@3T/4", policy: s3},
	}, nil
}

// dumpHours writes a run's per-hour accounting, derived from its
// inputs and instance records, to a CSV file.
func dumpHours(path string, demand, newRes []int, period int, res simulate.Result) error {
	rows, err := simulate.HourRows(demand, newRes, period, res.Instances)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := simulate.WriteHoursCSV(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// extraPolicy resolves the -policy flag into an extension policy.
func extraPolicy(name string, it pricing.InstanceType, a float64, seed int64) (namedPolicy, error) {
	switch name {
	case "multi":
		p, err := core.NewPaperMultiThreshold(it, a)
		if err != nil {
			return namedPolicy{}, err
		}
		return namedPolicy{name: "Multi{T/4,T/2,3T/4}", policy: p}, nil
	case "rand-exp":
		p, err := core.NewRandomized(it, a, core.ExponentialFractions{}, seed)
		if err != nil {
			return namedPolicy{}, err
		}
		return namedPolicy{name: "A_rand " + p.Dist().String(), policy: p}, nil
	case "rand-uniform":
		p, err := core.NewRandomized(it, a, core.UniformFractions{Lo: 0.2, Hi: 0.8}, seed)
		if err != nil {
			return namedPolicy{}, err
		}
		return namedPolicy{name: "A_rand " + p.Dist().String(), policy: p}, nil
	default:
		k, err := strconv.ParseFloat(name, 64)
		if err != nil {
			return namedPolicy{}, fmt.Errorf("unknown policy %q (want multi, rand-exp, rand-uniform, or a fraction)", name)
		}
		p, err := core.NewThreshold(it, a, k)
		if err != nil {
			return namedPolicy{}, err
		}
		return namedPolicy{name: p.Name(), policy: p}, nil
	}
}

func plannerFor(behavior string, it pricing.InstanceType, seed int64) (purchasing.Policy, error) {
	switch behavior {
	case "all-reserved":
		return purchasing.AllReserved{}, nil
	case "random":
		return purchasing.NewRandom(seed), nil
	case "wang-online":
		return purchasing.NewWangOnline(it), nil
	case "wang-variant":
		return purchasing.NewWangVariant(it), nil
	default:
		return nil, fmt.Errorf("unknown behavior %q", behavior)
	}
}

func loadTrace(path, synthetic string, hours int, seed int64) (workload.Trace, error) {
	switch {
	case path != "" && synthetic != "":
		return workload.Trace{}, fmt.Errorf("pass either -trace or -synthetic, not both")
	case path != "":
		f, err := os.Open(path)
		if err != nil {
			return workload.Trace{}, err
		}
		defer f.Close()
		return gtrace.ReadEC2LogAuto(f)
	case synthetic != "":
		rng := rand.New(rand.NewSource(seed))
		var gen workload.Generator
		switch synthetic {
		case "stable":
			gen = workload.StableGenerator{Base: 8, Jitter: 1.2, DiurnalAmp: 1.6}
		case "moderate":
			gen = workload.DiurnalGenerator{Peak: 16, Trough: 0, Noise: 2, WeekendDip: 0.2}
		case "volatile":
			gen = workload.BurstyGenerator{BurstHeight: 24, BurstRate: 0.004, MeanBurstLen: 6}
		default:
			return workload.Trace{}, fmt.Errorf("unknown synthetic profile %q", synthetic)
		}
		return gen.Generate("synthetic-"+synthetic, hours, rng), nil
	default:
		return workload.Trace{}, fmt.Errorf("pass -trace FILE or -synthetic PROFILE")
	}
}
