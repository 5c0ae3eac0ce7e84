// Command ritrace generates, inspects and converts demand traces in
// the formats the paper's evaluation uses.
//
// Usage:
//
//	ritrace gen -out traces/ -pergroup 10 -hours 2000   # synthetic cohort as EC2 logs
//	ritrace inspect -trace traces/user-g1-000.csv       # stats for one log
//	ritrace inspect -trace cohort.colt                  # summarize a columnar store
//	ritrace gen-gtrace -out tasks.csv -pergroup 5       # Google-style task events
//	ritrace convert -in tasks.csv -out traces/          # task events -> EC2 logs
//	ritrace convert -from ec2-log -to colt -in traces/ -out cohort.colt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rimarket/internal/cli"
	"rimarket/internal/coltrace"
	"rimarket/internal/gtrace"
	"rimarket/internal/stats"
	"rimarket/internal/workload"
)

func main() {
	if err := runStderr(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ritrace:", err)
		os.Exit(cli.ExitCode(err))
	}
}

// run keeps the historical test entry point; observability notices
// (pprof address) are discarded without a stderr.
func run(args []string, w io.Writer) error { return runStderr(args, w, io.Discard) }

func runStderr(args []string, w, stderr io.Writer) error {
	if len(args) == 0 {
		return cli.Usagef("usage: ritrace <gen|gen-gtrace|inspect|convert> [flags]")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "gen":
		return genCohort(rest, w, stderr)
	case "gen-gtrace":
		return genGTrace(rest, w, stderr)
	case "inspect":
		return inspect(rest, w, stderr)
	case "convert":
		return convert(rest, w, stderr)
	default:
		return cli.Usagef("unknown subcommand %q", cmd)
	}
}

func cohortFlags(fs *flag.FlagSet) (perGroup *int, hours *int, seed *int64) {
	perGroup = fs.Int("pergroup", 5, "users per fluctuation group")
	hours = fs.Int("hours", 2000, "trace length in hours")
	seed = fs.Int64("seed", 2018, "cohort seed")
	return perGroup, hours, seed
}

func genCohort(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	out := fs.String("out", ".", "output directory for EC2-usage-log files")
	perGroup, hours, seed := cohortFlags(fs)
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	return obsFlags.Run("ritrace", args, stderr, func(sess *cli.ObsSession) error {
		if mf := sess.Manifest(); mf != nil {
			mf.Seed = *seed
		}
		traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: *perGroup, Hours: *hours, Seed: *seed})
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for _, tr := range traces {
			path := filepath.Join(*out, tr.User+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := gtrace.WriteEC2Log(f, tr); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "wrote %d traces to %s\n", len(traces), *out)
		return nil
	})
}

func genGTrace(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("gen-gtrace", flag.ContinueOnError)
	out := fs.String("out", "task_events.csv", "output task-events CSV")
	compress := fs.Bool("gz", false, "gzip the output (like the real clusterdata files)")
	perGroup, hours, seed := cohortFlags(fs)
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	return obsFlags.Run("ritrace", args, stderr, func(sess *cli.ObsSession) error {
		if mf := sess.Manifest(); mf != nil {
			mf.Seed = *seed
		}
		traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: *perGroup, Hours: *hours, Seed: *seed})
		if err != nil {
			return err
		}
		events, err := gtrace.SynthesizeTaskEvents(traces, gtrace.DefaultCapacity)
		if err != nil {
			return err
		}
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		write := gtrace.WriteTaskEvents
		if *compress {
			write = gtrace.WriteTaskEventsGZ
		}
		if err := write(f, events); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d task events for %d users to %s\n", len(events), len(traces), *out)
		return nil
	})
}

func inspect(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	path := fs.String("trace", "", "EC2-usage-log CSV to inspect")
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	return obsFlags.Run("ritrace", args, stderr, func(sess *cli.ObsSession) error {
		if *path == "" {
			return fmt.Errorf("pass -trace FILE")
		}
		if strings.HasSuffix(*path, coltrace.Ext) {
			return inspectColt(w, *path)
		}
		f, err := os.Open(*path)
		if err != nil {
			return err
		}
		defer f.Close()
		tr, err := gtrace.ReadEC2LogAuto(f)
		if err != nil {
			return err
		}
		fl := tr.Floats()
		fmt.Fprintf(w, "user: %s\nhours: %d\ntotal instance-hours: %d\npeak demand: %d\nmean: %.2f\nsigma/mu: %.2f\ngroup: %v\n",
			tr.User, tr.Len(), tr.TotalDemand(), tr.MaxDemand(), stats.Mean(fl), tr.FluctuationRatio(), workload.Classify(tr))
		edges, counts, err := stats.Histogram(fl, 8)
		if err == nil {
			fmt.Fprintln(w, "\ndemand histogram:")
			fmt.Fprint(w, stats.RenderHistogram(edges, counts, 40))
		}
		return nil
	})
}

// inspectColt summarizes a columnar cohort store: per record its
// shape, demand volume and whether a reservation column is present,
// then store-wide totals.
func inspectColt(w io.Writer, path string) error {
	cohorts, err := coltrace.ReadFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "store: %s\nformat: colt v%d\ncohorts: %d\n", path, coltrace.FormatVersion, len(cohorts))
	totalUsers, totalHours := 0, 0
	var totalDemand int64
	for i, c := range cohorts {
		var sum int64
		var peak int32
		for _, d := range c.Demand {
			sum += int64(d)
			if d > peak {
				peak = d
			}
		}
		res := "no"
		if c.NewRes != nil {
			res = "yes"
		}
		fmt.Fprintf(w, "cohort %d: %d users x %d hours, total demand %d, peak %d, reservations: %s\n",
			i, len(c.Users), c.Hours, sum, peak, res)
		totalUsers += len(c.Users)
		totalHours += len(c.Users) * c.Hours
		totalDemand += sum
	}
	fmt.Fprintf(w, "total: %d users, %d instance-hours of demand over %d trace-hours\n",
		totalUsers, totalDemand, totalHours)
	return nil
}

func convert(args []string, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input: task-events CSV (-from task-events) or EC2-log directory (-from ec2-log)")
	out := fs.String("out", ".", "output: directory for per-user EC2 logs (-to ec2-log) or columnar store path (-to colt)")
	from := fs.String("from", "task-events", "input format: task-events (Google-style CSV) or ec2-log (trace directory: .csv/.csv.gz usage logs and .colt stores)")
	to := fs.String("to", "ec2-log", "output format: ec2-log (per-user CSV files) or colt (one columnar cohort store)")
	cpu := fs.Float64("cpu", gtrace.DefaultCapacity.CPU, "per-instance CPU capacity")
	mem := fs.Float64("mem", gtrace.DefaultCapacity.Memory, "per-instance memory capacity")
	var obsFlags cli.ObsFlags
	obsFlags.RegisterBasic(fs)
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}
	// Reject unknown formats before touching the input: a typo in -from
	// or -to is a usage error, not a half-finished conversion.
	switch *from {
	case "task-events", "ec2-log":
	default:
		return cli.Usagef("unknown -from format %q (want task-events or ec2-log)", *from)
	}
	switch *to {
	case "ec2-log", "colt":
	default:
		return cli.Usagef("unknown -to format %q (want ec2-log or colt)", *to)
	}
	return obsFlags.Run("ritrace", args, stderr, func(sess *cli.ObsSession) error {
		if *in == "" {
			return fmt.Errorf("pass -in FILE")
		}
		var traces []workload.Trace
		var source string
		switch *from {
		case "task-events":
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			events, err := gtrace.ReadTaskEventsAuto(f)
			if err != nil {
				return err
			}
			traces, err = gtrace.AggregateByUser(events, gtrace.InstanceCapacity{CPU: *cpu, Memory: *mem, Disk: 1})
			if err != nil {
				return err
			}
			source = fmt.Sprintf("%d events", len(events))
		case "ec2-log":
			loaded, report, err := gtrace.LoadFS(os.DirFS(*in), gtrace.LoadOptions{})
			if err != nil {
				return fmt.Errorf("%s: %w", *in, err)
			}
			traces, source = loaded, fmt.Sprintf("%d trace files", len(report.Loaded))
		}
		switch *to {
		case "ec2-log":
			if err := os.MkdirAll(*out, 0o755); err != nil {
				return err
			}
			for _, tr := range traces {
				path := filepath.Join(*out, tr.User+".csv")
				g, err := os.Create(path)
				if err != nil {
					return err
				}
				if err := gtrace.WriteEC2Log(g, tr); err != nil {
					g.Close()
					return err
				}
				if err := g.Close(); err != nil {
					return err
				}
			}
			fmt.Fprintf(w, "converted %s into %d user traces in %s\n", source, len(traces), *out)
		case "colt":
			cohorts, err := coltrace.GroupTraces(traces)
			if err != nil {
				return err
			}
			if err := coltrace.WriteFile(*out, cohorts...); err != nil {
				return err
			}
			fmt.Fprintf(w, "converted %s into %d users across %d cohorts in %s\n", source, len(traces), len(cohorts), *out)
		}
		return nil
	})
}
