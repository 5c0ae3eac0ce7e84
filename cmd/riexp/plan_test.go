package main

// Every cohort-reading experiment runs on the one plan riexp's flags
// build: -tracedir reaches every driver, the experiments that read no
// cohort reject it, -json/-csv are rejected where no cohort result is
// built, and a spill store refuses to resume on different traces.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rimarket/internal/cli"
	"rimarket/internal/experiments"
	"rimarket/internal/gtrace"
	"rimarket/internal/workload"
)

// writeCohortDir writes six ec2-log traces long enough to cross the
// test-scale checkpoints. Every seed gives the same user names and
// count but different demand.
func writeCohortDir(t *testing.T, seed int64) string {
	t.Helper()
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(seed))
	gens := []workload.Generator{
		workload.StableGenerator{Base: 8, Jitter: 1.2, DiurnalAmp: 1.6},
		workload.DiurnalGenerator{Peak: 16, Trough: 0, Noise: 2, WeekendDip: 0.2},
		workload.BurstyGenerator{BurstHeight: 24, BurstRate: 0.004, MeanBurstLen: 6},
	}
	for i := 0; i < 6; i++ {
		tr := gens[i%len(gens)].Generate(fmt.Sprintf("u%d", i), 1500, rng)
		f, err := os.Create(filepath.Join(dir, tr.User+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if err := gtrace.WriteEC2Log(f, tr); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestOnePlanSweepOnTraces(t *testing.T) {
	dir := writeCohortDir(t, 1)
	got := runStdout(t, "-exp", "sweep-k", "-tracedir", dir)

	ctx := context.Background()
	traces, _, err := gtrace.LoadFS(os.DirFS(dir), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := experiments.PlanTraces(ctx, experiments.TestScaleConfig(), traces)
	if err != nil {
		t.Fatal(err)
	}
	points, err := plan.SweepFraction(ctx, []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875})
	if err != nil {
		t.Fatal(err)
	}
	want := experiments.RenderSweep("Ablation — checkpoint fraction k of A_{kT}", "k", points)
	if got != want {
		t.Fatalf("-exp sweep-k -tracedir differs from PlanTraces(dir).SweepFraction:\n--- got\n%s\n--- want\n%s", got, want)
	}
}

// TestOnePlanTraceDirReachesDrivers: every plan-backed driver prints
// different bytes for two trace directories of the same shape, so none
// of them ignores -tracedir.
func TestOnePlanTraceDirReachesDrivers(t *testing.T) {
	a, b := writeCohortDir(t, 1), writeCohortDir(t, 2)
	for _, exp := range []string{"sweep-k", "sweep-a", "sweep-fee", "sensitivity", "extensions", "market", "resell"} {
		t.Run(exp, func(t *testing.T) {
			if runStdout(t, "-exp", exp, "-tracedir", a) == runStdout(t, "-exp", exp, "-tracedir", b) {
				t.Fatalf("-exp %s printed the same bytes for two different trace directories", exp)
			}
		})
	}
}

func TestOnePlanMissingTraceDir(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "sweep-k", "-tracedir", filepath.Join(t.TempDir(), "missing")}, &out, io.Discard)
	if code := cli.ExitCode(err); code != cli.ExitError {
		t.Fatalf("err = %v (exit %d), want a run error (exit %d)", err, code, cli.ExitError)
	}
	if out.Len() != 0 {
		t.Fatalf("failed run wrote stdout:\n%s", out.String())
	}
}

// TestOnePlanMootFlags: a flag the experiment has no use for is a usage
// error raised before any work, not silently dropped.
func TestOnePlanMootFlags(t *testing.T) {
	dir := writeCohortDir(t, 1)
	export := filepath.Join(t.TempDir(), "out.json")
	var cases [][]string
	for _, exp := range []string{"table1", "bounds", "audit"} {
		cases = append(cases, []string{"-exp", exp, "-tracedir", dir})
	}
	for _, exp := range []string{"table1", "bounds", "audit", "sweep-k", "sweep-a", "sweep-fee", "sensitivity", "extensions", "market", "resell"} {
		cases = append(cases, []string{"-exp", exp, "-json", export}, []string{"-exp", exp, "-csv", export})
	}
	for _, args := range cases {
		t.Run(strings.Join(args[1:3], " "), func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), args, &out, io.Discard)
			if code := cli.ExitCode(err); code != cli.ExitUsage {
				t.Fatalf("riexp %s = %v (exit %d), want usage error (exit %d)", strings.Join(args, " "), err, code, cli.ExitUsage)
			}
			if out.Len() != 0 {
				t.Fatalf("riexp %s wrote stdout before failing", strings.Join(args, " "))
			}
			if _, err := os.Stat(export); err == nil {
				t.Fatalf("riexp %s wrote %s", strings.Join(args, " "), export)
			}
		})
	}
}

// TestOnePlanResumeOtherTraces: a spill store written from one trace
// directory must not resume on another with the same users and horizon
// but different demand.
func TestOnePlanResumeOtherTraces(t *testing.T) {
	a, b := writeCohortDir(t, 1), writeCohortDir(t, 2)
	spill := t.TempDir()
	ref := runStdout(t, "-exp", "table3", "-tracedir", a, "-spill", spill)
	if got := runStdout(t, "-exp", "table3", "-tracedir", a, "-resume", spill); got != ref {
		t.Fatalf("resume on the same traces differs from the spilling run:\n--- spill\n%s\n--- resume\n%s", ref, got)
	}
	var out strings.Builder
	err := run(context.Background(), []string{"-exp", "table3", "-tracedir", b, "-resume", spill}, &out, io.Discard)
	if err == nil {
		t.Fatalf("resume on different traces accepted:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "config hash") {
		t.Errorf("mismatch error %v does not name the config hash", err)
	}
}
