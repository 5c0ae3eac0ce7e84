// Command perfbench is the repository benchmark: one seeded,
// single-process driver over three workloads, each built from the
// package-level entry points a user-facing command calls.
//
//	paper-suite     every riexp experiment except market, at paper scale
//	market-session  experiments.RunMarketScenario over three price cards
//	rid-serve       an in-process ridserver under seeded HTTP load
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload paper-suite --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last stdout line carries the end-to-end metrics of
// the measured phase; with --trace 1 it carries the per-layer metrics of
// a separate traced pass instead. The line before it is a report with
// the environment stamp and the detail behind the metrics, and the same
// record goes to a result file under --results. --compare OLD NEW diffs
// two result files when they come from the same machine.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	budget   time.Duration
	trace    bool
	full     bool
	results  string
}

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps metric names to measurements.
type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) {
	m[name] = metric{Value: value, Unit: unit}
}

// result is the last stdout line, the contract with whoever runs the
// benchmark.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// record is what a result file holds: the result plus everything needed
// to judge whether two results may be compared.
type record struct {
	Workload string         `json:"workload"`
	Seed     int64          `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Scale    string         `json:"scale"`
	Env      envStamp       `json:"env"`
	Report   map[string]any `json:"report"`
	Errors   []string       `json:"errors,omitempty"`
	Result   result         `json:"result"`
}

// workloadFunc runs one workload: the measured phase (trace off) or the
// traced pass (trace on). It fills m and report and counts every
// operation and oracle check in t.
type workloadFunc func(ctx context.Context, o options, t *tally, m metrics, report map[string]any) error

var workloads = map[string]workloadFunc{
	"paper-suite":    paperSuite,
	"market-session": marketSession,
	"rid-serve":      ridServe,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		o       options
		seconds float64
		trace   int
		scale   string
		compare bool
	)
	fs.StringVar(&o.workload, "workload", "", "workload to run: paper-suite, market-session or rid-serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&seconds, "seconds", 20, "length of the measured phase in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&scale, "scale", "full", "input scale: full (paper scale) or test (seconds, for the smoke test)")
	fs.StringVar(&o.results, "results", filepath.Join(".bench_build", "results"), "directory for result files; empty disables them")
	fs.BoolVar(&compare, "compare", false, "compare two result files given as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: --compare needs two result files")
			return 2
		}
		if err := compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	wf, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || (scale != "full" && scale != "test") || seconds <= 0 || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload paper-suite|market-session|rid-serve, --trace 0|1, --scale full|test, --seconds > 0\n")
		return 2
	}
	o.budget = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	o.full = scale == "full"

	rec := record{Workload: o.workload, Seed: o.seed, Seconds: seconds, Trace: o.trace, Scale: scale,
		Env: stamp(), Report: map[string]any{}}
	var t tally
	m := metrics{}
	if err := wf(context.Background(), o, &t, m, rec.Report); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rec.Errors = t.errors()
	rec.Result = result{
		Correct:   t.failed.Load() == 0,
		Attempted: t.attempted.Load(),
		Failed:    t.failed.Load(),
		Metrics:   m,
	}
	if rec.Result.Attempted == 0 {
		fmt.Fprintln(stderr, "perfbench: no operation was attempted")
		return 1
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	if o.results != "" {
		if err := writeRecord(o.results, rec); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	report, err := json.Marshal(map[string]any{"env": rec.Env, "report": rec.Report})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", report, line)
	return 0
}

// writeRecord stores one run's record as <dir>/<workload>-s<seed>-t<trace>.json.
func writeRecord(dir string, rec record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	trace := 0
	if rec.Trace {
		trace = 1
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-s%d-t%d.json", rec.Workload, rec.Seed, trace))
	return os.WriteFile(name, append(b, '\n'), 0o644)
}

// compareFiles prints the metric ratios new/old of two result files, or
// refuses when they were measured on different machines or workloads:
// such numbers differ for reasons the code did not cause.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	var recs [2]record
	for i, p := range []string{oldPath, newPath} {
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, &recs[i]); err != nil {
			return fmt.Errorf("%s: %w", p, err)
		}
	}
	old, cur := recs[0], recs[1]
	if why := old.Env.incomparable(cur.Env); why != "" {
		fmt.Fprintf(w, "not comparable: %s\n", why)
		return errors.New("results come from different machines")
	}
	if old.Workload != cur.Workload || old.Trace != cur.Trace || old.Scale != cur.Scale || old.Seconds != cur.Seconds {
		fmt.Fprintf(w, "not comparable: workload/trace/scale/seconds differ\n")
		return errors.New("results come from different benchmark settings")
	}
	names := make([]string, 0, len(cur.Result.Metrics))
	for name := range cur.Result.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s (%s -> %s)\n", cur.Workload, old.Env.Revision, cur.Env.Revision)
	for _, name := range names {
		n, o := cur.Result.Metrics[name], old.Result.Metrics[name]
		ratio := "n/a"
		if o.Value != 0 {
			ratio = fmt.Sprintf("%+.1f%%", (n.Value/o.Value-1)*100)
		}
		fmt.Fprintf(w, "%-32s %14.4g %14.4g %-6s %s\n", name, o.Value, n.Value, n.Unit, ratio)
	}
	return nil
}

// workers is the load-generation and worker-pool width: one goroutine
// per CPU the process may use.
func workers() int { return runtime.GOMAXPROCS(0) }
