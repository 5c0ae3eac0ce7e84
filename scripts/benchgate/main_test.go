package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rimarket/internal/cli"
)

const (
	engineLines = "BenchmarkEngineRun/1y-8 \t     100\t   1000 ns/op\t   50 B/op\t  10 allocs/op\n" +
		"BenchmarkEngineRun/1y-8 \t     100\t   1200 ns/op\t   50 B/op\t  10 allocs/op\n"
	obsLine     = "BenchmarkObsOverhead/obs=on-8 \t     100\t   1000 ns/op\t   50 B/op\t   2 allocs/op\n"
	benchOutput = "goos: linux\n" + engineLines + obsLine + "PASS\n"
)

// writeBaseline writes a baseline holding the given policy and
// benchOutput's minima, rows deliberately unsorted.
func writeBaseline(t *testing.T, timeTol float64, exact string) string {
	t.Helper()
	doc := Baseline{Note: "test baseline", Tolerance: 0.2, TimeTolerance: timeTol, ExactAllocs: exact, Benchmarks: []Entry{
		{Name: "BenchmarkObsOverhead/obs=on", NsPerOp: 1000, BytesPerOp: 50, AllocsPerOp: 2},
		{Name: "BenchmarkEngineRun/1y", NsPerOp: 1000, BytesPerOp: 50, AllocsPerOp: 10},
	}}
	buf, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "base.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// gate runs benchgate on input and returns its report and exit code.
func gate(input string, args ...string) (string, int) {
	var out, errOut bytes.Buffer
	err := run(args, strings.NewReader(input), &out, &errOut)
	return out.String() + errOut.String(), cli.ExitCode(err)
}

func TestParseBenchTakesMinimum(t *testing.T) {
	entries, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("got %d entries, want 2", len(entries))
	}
	e := entries[0]
	if e.Name != "BenchmarkEngineRun/1y" {
		t.Errorf("GOMAXPROCS suffix not stripped: %q", e.Name)
	}
	if e.NsPerOp != 1000 {
		t.Errorf("min over repeats: ns/op = %v, want 1000", e.NsPerOp)
	}
}

func TestRunUpdateThenCheck(t *testing.T) {
	// The time tolerance is read from the file: +50% passes at 0.6 and
	// fails at 0.2.
	slow := strings.NewReplacer("1000 ns/op", "1500 ns/op", "1200 ns/op", "1500 ns/op").Replace(benchOutput)
	for timeTol, want := range map[float64]int{0.6: cli.ExitOK, 0.2: cli.ExitError} {
		if report, code := gate(slow, "-baseline", writeBaseline(t, timeTol, "^BenchmarkObsOverhead")); code != want {
			t.Errorf("+50%% time at time_tolerance %v: exit %d, want %d\n%s", timeTol, code, want, report)
		}
	}

	// -update rewrites the rows, sorted, and keeps the whole policy.
	path := writeBaseline(t, 0.6, "^BenchmarkObsOverhead")
	if report, code := gate(slow, "-update", "-baseline", path); code != cli.ExitOK {
		t.Fatalf("update: exit %d\n%s", code, report)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Baseline
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Note != "test baseline" || got.Tolerance != 0.2 || got.TimeTolerance != 0.6 || got.ExactAllocs != "^BenchmarkObsOverhead" {
		t.Errorf("update lost the policy: %+v", got)
	}
	if len(got.Benchmarks) != 2 || got.Benchmarks[0].Name != "BenchmarkEngineRun/1y" || got.Benchmarks[1].NsPerOp != 1500 {
		t.Errorf("update rows not refreshed and sorted: %+v", got.Benchmarks)
	}

	// A run that lacks a baseline row cannot refresh it, and the file
	// is left as it was.
	if report, code := gate(engineLines, "-update", "-baseline", path); code != cli.ExitError {
		t.Errorf("update without the obs row: exit %d, want %d\n%s", code, cli.ExitError, report)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
		t.Error("a refused update rewrote the baseline")
	}

	// -update needs a baseline to take the policy from.
	missing := filepath.Join(t.TempDir(), "missing.json")
	if _, code := gate(benchOutput, "-update", "-baseline", missing); code != cli.ExitError {
		t.Errorf("update of a missing file: exit %d, want %d", code, cli.ExitError)
	}
}

func TestRunExactAllocs(t *testing.T) {
	path := writeBaseline(t, 0.6, "^BenchmarkObsOverhead")
	for _, drift := range []struct{ obs, engine string }{{"1 allocs/op", "9 allocs/op"}, {"3 allocs/op", "11 allocs/op"}} {
		// ±1 on the exact row fails in both directions.
		obs := strings.Replace(obsLine, "2 allocs/op", drift.obs, 1)
		if report, code := gate(engineLines+obs, "-baseline", path); code != cli.ExitError || !strings.Contains(report, "EXACT") {
			t.Errorf("obs row at %s: exit %d, want %d with an EXACT line\n%s", drift.obs, code, cli.ExitError, report)
		}
		// The same drift on another row is within the ratio rule.
		engine := strings.ReplaceAll(engineLines, "10 allocs/op", drift.engine)
		if report, code := gate(engine+obsLine, "-baseline", path); code != cli.ExitOK {
			t.Errorf("engine row at %s: exit %d, want 0\n%s", drift.engine, code, report)
		}
	}
	// The ratio rule still catches an increase beyond 20%.
	engine := strings.ReplaceAll(engineLines, "10 allocs/op", "14 allocs/op")
	if report, code := gate(engine+obsLine, "-baseline", path); code != cli.ExitError {
		t.Errorf("engine row at 14 allocs/op: exit %d, want %d\n%s", code, cli.ExitError, report)
	}

	// A pattern that matches no row, or does not compile, is bad input.
	for _, exact := range []string{"^BenchmarkRenamed", "("} {
		if report, code := gate(benchOutput, "-baseline", writeBaseline(t, 0.6, exact)); code != cli.ExitError {
			t.Errorf("exact_allocs %q: exit %d, want %d\n%s", exact, code, cli.ExitError, report)
		}
	}
}

func TestRunExitCodes(t *testing.T) {
	path := writeBaseline(t, 0.6, "^BenchmarkObsOverhead")
	for _, flag := range []string{"-no-such-flag", "-tolerance=0.5", "-time-tolerance=0.5", "-note=x", "-exact-allocs=x"} {
		if _, code := gate(benchOutput, flag, "-baseline", path); code != cli.ExitUsage {
			t.Errorf("%s maps to exit %d, want %d", flag, code, cli.ExitUsage)
		}
	}
	if _, code := gate("no benchmarks here\n", "-baseline", path); code != cli.ExitError {
		t.Errorf("empty input maps to exit %d, want %d", code, cli.ExitError)
	}
	if _, code := gate(benchOutput, "-baseline", filepath.Join(t.TempDir(), "missing.json")); code != cli.ExitError {
		t.Errorf("missing baseline maps to exit %d, want %d", code, cli.ExitError)
	}
}

// TestCommittedBaseline holds the repo's BENCH.json to the gate policy
// scripts/bench.sh relies on.
func TestCommittedBaseline(t *testing.T) {
	base, exactRe, err := loadBaseline(filepath.Join("..", "..", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	if base.Tolerance != 0.2 || base.TimeTolerance != 0.6 {
		t.Fatalf("policy: tolerance %v, time_tolerance %v, exact_allocs %q", base.Tolerance, base.TimeTolerance, base.ExactAllocs)
	}
	var exact []string
	for i, e := range base.Benchmarks {
		if i > 0 && base.Benchmarks[i-1].Name >= e.Name {
			t.Errorf("rows not unique and sorted at %q", e.Name)
		}
		if exactRe.MatchString(e.Name) {
			exact = append(exact, e.Name)
		}
	}
	want := []string{"BenchmarkAuditInstance", "BenchmarkCohortSynthesis", "BenchmarkGridSkewed/dist=skewed", "BenchmarkGridSkewed/dist=uniform",
		"BenchmarkMarketMatch/open=100000", "BenchmarkMarketMatch/open=1000000",
		"BenchmarkMeasuredRatio", "BenchmarkObsOverhead/obs=off", "BenchmarkObsOverhead/obs=on",
		"BenchmarkPlanReservations/wang-online", "BenchmarkPlanReservations/wang-variant"}
	if !slices.Equal(exact, want) {
		t.Errorf("exact_allocs matches %q, want %q", exact, want)
	}
}
