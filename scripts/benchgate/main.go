// Command benchgate enforces the committed microbenchmark baseline,
// BENCH.json, against `go test -bench` output on stdin, or refreshes
// its rows (-update). scripts/bench.sh runs the gated benchmarks and
// pipes them here; it is the only list of them:
//
//	scripts/bench.sh           # check this machine against BENCH.json
//	scripts/bench.sh -update   # rewrite BENCH.json's rows from the run
//
// The gate policy lives in the baseline file, not on the command line:
// "tolerance" bounds allocs/op growth as (c+1)/(b+1), "time_tolerance"
// bounds time/op growth, and allocs/op of the rows "exact_allocs"
// matches must equal the baseline exactly. -update rewrites only the
// rows and keeps that policy. It refuses a run that lacks a row the
// baseline has, so a benchmark that crashes during a refresh cannot
// silently leave the gate. A check fails if exact_allocs matches no
// row, so a rename cannot silently move a zero-alloc contract onto the
// tolerance band.
//
// With -count > 1 the minimum over repeats is used on both sides,
// which is the standard way to damp scheduler noise.
//
// Exit codes follow the shared internal/cli vocabulary: 0 when the
// run is within tolerance (or the baseline was written), 1 on a
// regression or on bad input (unreadable baseline, no benchmark lines
// on stdin, a missing row), 2 on command-line misuse.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rimarket/internal/cli"
)

// Entry is one benchmark's recorded costs. GOMAXPROCS suffixes are
// stripped from names so baselines transfer across machines.
type Entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// Baseline is the committed BENCH.json document: the gate policy and
// one row per gated benchmark.
type Baseline struct {
	Note          string  `json:"note"`
	Tolerance     float64 `json:"tolerance"`
	TimeTolerance float64 `json:"time_tolerance"`
	ExactAllocs   string  `json:"exact_allocs"`
	Benchmarks    []Entry `json:"benchmarks"`
}

// errRegression marks a benchmark run beyond tolerance; it maps to
// the plain failure exit code.
var errRegression = errors.New("regression beyond tolerance")

var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBench reads `go test -bench` output and returns per-benchmark
// minima over repeated runs.
func parseBench(r io.Reader) ([]Entry, error) {
	byName := map[string]*Entry{}
	var order []string
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := gomaxprocsSuffix.ReplaceAllString(fields[0], "")
		e := Entry{Name: name, NsPerOp: -1, BytesPerOp: -1, AllocsPerOp: -1}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchgate: bad value %q in %q", fields[i], line)
			}
			switch fields[i+1] {
			case "ns/op":
				e.NsPerOp = v
			case "B/op":
				e.BytesPerOp = v
			case "allocs/op":
				e.AllocsPerOp = v
			}
		}
		if e.NsPerOp < 0 {
			continue
		}
		prev, ok := byName[name]
		if !ok {
			cp := e
			byName[name] = &cp
			order = append(order, name)
			continue
		}
		if e.NsPerOp < prev.NsPerOp {
			prev.NsPerOp = e.NsPerOp
		}
		if e.BytesPerOp >= 0 && (prev.BytesPerOp < 0 || e.BytesPerOp < prev.BytesPerOp) {
			prev.BytesPerOp = e.BytesPerOp
		}
		if e.AllocsPerOp >= 0 && (prev.AllocsPerOp < 0 || e.AllocsPerOp < prev.AllocsPerOp) {
			prev.AllocsPerOp = e.AllocsPerOp
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchgate: reading bench output: %w", err)
	}
	out := make([]Entry, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out, nil
}

func main() {
	err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
	}
	os.Exit(cli.ExitCode(err))
}

// loadBaseline reads the baseline at path and compiles its exact_allocs
// pattern.
func loadBaseline(path string) (Baseline, *regexp.Regexp, error) {
	var base Baseline
	raw, err := os.ReadFile(path)
	if err != nil {
		return base, nil, fmt.Errorf("reading baseline: %w", err)
	}
	if err := json.Unmarshal(raw, &base); err != nil {
		return base, nil, fmt.Errorf("%s: %w", path, err)
	}
	if base.Tolerance <= 0 || base.TimeTolerance <= 0 {
		return base, nil, fmt.Errorf("%s: tolerance and time_tolerance must be positive", path)
	}
	exactRe, err := regexp.Compile(base.ExactAllocs)
	if err != nil {
		return base, nil, fmt.Errorf("%s: bad exact_allocs regexp: %w", path, err)
	}
	return base, exactRe, nil
}

func run(args []string, stdin io.Reader, w, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	baselinePath := fs.String("baseline", "BENCH.json", "baseline JSON path; the file also holds the gate policy")
	update := fs.Bool("update", false, "rewrite the baseline's rows from this run, keeping its policy, instead of checking")
	if err := fs.Parse(args); err != nil {
		return cli.Usage(err)
	}

	base, exactRe, err := loadBaseline(*baselinePath)
	if err != nil {
		return err
	}
	current, err := parseBench(stdin)
	if err != nil {
		return err
	}
	if len(current) == 0 {
		return errors.New("no benchmark lines on stdin")
	}
	curByName := map[string]Entry{}
	for _, e := range current {
		curByName[e.Name] = e
	}

	if *update {
		for _, b := range base.Benchmarks {
			if _, ok := curByName[b.Name]; !ok {
				return fmt.Errorf("refusing to update %s: %s is in the baseline but not in this run", *baselinePath, b.Name)
			}
		}
		sort.Slice(current, func(i, j int) bool { return current[i].Name < current[j].Name })
		base.Benchmarks = current
		buf, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			return fmt.Errorf("encoding baseline: %w", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*baselinePath, buf, 0o644); err != nil {
			return fmt.Errorf("writing baseline: %w", err)
		}
		fmt.Fprintf(w, "benchgate: wrote %d benchmarks to %s\n", len(current), *baselinePath)
		return nil
	}

	if !slices.ContainsFunc(base.Benchmarks, func(e Entry) bool { return exactRe.MatchString(e.Name) }) {
		return fmt.Errorf("%s: exact_allocs %q matches no baseline row", *baselinePath, base.ExactAllocs)
	}
	tol, timeTol := base.Tolerance, base.TimeTolerance
	baseByName := map[string]Entry{}
	for _, e := range base.Benchmarks {
		baseByName[e.Name] = e
	}

	failed := false
	for _, b := range base.Benchmarks {
		c, ok := curByName[b.Name]
		if !ok {
			fmt.Fprintf(w, "MISSING  %s: in baseline but not in this run\n", b.Name)
			failed = true
			continue
		}
		timeRatio := c.NsPerOp / b.NsPerOp
		status := "ok      "
		if timeRatio > 1+timeTol {
			status = "REGRESS "
			failed = true
		}
		fmt.Fprintf(w, "%s %s: time/op %.0f -> %.0f ns (%+.1f%%)\n",
			status, b.Name, b.NsPerOp, c.NsPerOp, 100*(timeRatio-1))
		switch {
		case exactRe.MatchString(b.Name):
			if c.AllocsPerOp != b.AllocsPerOp {
				fmt.Fprintf(w, "EXACT    %s: allocs/op %.0f -> %.0f, must equal the baseline exactly\n",
					b.Name, b.AllocsPerOp, c.AllocsPerOp)
				failed = true
			}
		case b.AllocsPerOp > 0 || c.AllocsPerOp > 0:
			allocRatio := (c.AllocsPerOp + 1) / (b.AllocsPerOp + 1) // +1: tolerate zero baselines
			if allocRatio > 1+tol {
				fmt.Fprintf(w, "REGRESS  %s: allocs/op %.0f -> %.0f (%+.1f%%)\n",
					b.Name, b.AllocsPerOp, c.AllocsPerOp, 100*(allocRatio-1))
				failed = true
			}
		}
	}
	for _, c := range current {
		if _, ok := baseByName[c.Name]; !ok {
			fmt.Fprintf(w, "NEW      %s: not in baseline; refresh with scripts/bench.sh -update\n", c.Name)
		}
	}
	if failed {
		return fmt.Errorf("%w (time %.0f%%, allocs %.0f%%) vs %s",
			errRegression, 100*timeTol, 100*tol, *baselinePath)
	}
	fmt.Fprintf(w, "benchgate: %d benchmarks within tolerance (time %.0f%%, allocs %.0f%%) of %s\n",
		len(base.Benchmarks), 100*timeTol, 100*tol, *baselinePath)
	return nil
}
