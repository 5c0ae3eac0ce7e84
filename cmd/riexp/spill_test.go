package main

// Acceptance tests for -spill / -resume: flag plumbing, the on-disk
// store a spilling run leaves behind, and — the issue's headline — a
// run cancelled mid-grid through the real SIGINT signal path exiting 3
// with a partial spill directory that a second invocation resumes to
// byte-identical stdout.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"rimarket/internal/cli"
	"rimarket/internal/experiments"
	"rimarket/internal/obs"
)

// sensitivityArgs is the grid experiment the spill tests drive: 25
// cells, small cohort, long enough to interrupt.
func sensitivityArgs(extra ...string) []string {
	return append([]string{"-exp", "sensitivity", "-pergroup", "2", "-seed", "11"}, extra...)
}

func TestSpillLeavesResumableStore(t *testing.T) {
	ref, _, err := runObs(t, sensitivityArgs())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	got, _, err := runObs(t, sensitivityArgs("-spill", dir))
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("stdout with -spill differs from plain run:\n--- plain ---\n%s\n--- spill ---\n%s", ref, got)
	}
	store := filepath.Join(dir, "sensitivity")
	if _, err := os.Stat(filepath.Join(store, "spec.json")); err != nil {
		t.Fatalf("spill store has no spec.json: %v", err)
	}
	shards, err := filepath.Glob(filepath.Join(store, "shard-*.grid"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("spill store has no shards (err=%v)", err)
	}

	// Resuming the completed store recomputes nothing: every cell is
	// resumed, none recomputed, and stdout is still byte-identical.
	manifest := filepath.Join(t.TempDir(), "resume.json")
	got, _, err = runObs(t, sensitivityArgs("-resume", dir, "-metrics", manifest))
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Errorf("stdout after no-op resume differs from plain run")
	}
	mf := readManifest(t, manifest)
	if mf.Metrics.CellsResumed != 25 || mf.Metrics.CellsDone != 0 {
		t.Errorf("no-op resume: cells_resumed=%d cells_done=%d, want 25/0",
			mf.Metrics.CellsResumed, mf.Metrics.CellsDone)
	}
}

func TestSpillResumeMutuallyExclusive(t *testing.T) {
	dir := t.TempDir()
	_, _, err := runObs(t, sensitivityArgs("-spill", dir, "-resume", dir))
	if err == nil {
		t.Fatal("-spill with -resume accepted")
	}
	if cli.ExitCode(err) != cli.ExitUsage {
		t.Errorf("exit code %d, want %d (usage)", cli.ExitCode(err), cli.ExitUsage)
	}
}

func TestResumeConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := runObs(t, sensitivityArgs("-spill", dir)); err != nil {
		t.Fatal(err)
	}
	// A different seed is a different grid: the store must refuse to
	// merge, loudly, instead of serving stale cells.
	_, _, err := runObs(t, []string{"-exp", "sensitivity", "-pergroup", "2", "-seed", "12", "-resume", dir})
	if err == nil {
		t.Fatal("resume with mismatched config accepted")
	}
	if !strings.Contains(err.Error(), "config hash") && !strings.Contains(err.Error(), "seed") {
		t.Errorf("mismatch error %v does not name the mismatch", err)
	}
}

// TestSpillInterruptAndResume is the crash/resume acceptance test: a
// spilling run is cancelled mid-grid by a real SIGINT through
// cli.SignalContext, must exit 3 pointing at -resume, and the resumed
// invocation must print stdout byte-identical to a never-interrupted
// run while the manifest records the resumed-vs-recomputed split.
func TestSpillInterruptAndResume(t *testing.T) {
	interruptArgs := func(extra ...string) []string {
		return append([]string{"-exp", "sensitivity", "-pergroup", "12", "-parallelism", "1", "-seed", "11"}, extra...)
	}
	ref, _, err := runObs(t, interruptArgs())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, stop := cli.SignalContext()
	defer stop()
	// The interrupted run's driver reads time from a clock that every
	// engine call consults. Once the run has spilled its first cell —
	// early enough to leave work undone, late enough that the partial
	// store is non-trivial — the clock raises SIGINT and holds the grid
	// worker until the signal has cancelled the run, so the run cannot
	// finish before the signal is handled. The wrapped driver serves
	// this run only.
	var out, errw bytes.Buffer
	err = func() error {
		driver := planDrivers["sensitivity"]
		defer func() { planDrivers["sensitivity"] = driver }()
		planDrivers["sensitivity"] = func(ctx context.Context, plan *experiments.CohortPlan) (string, error) {
			var raised atomic.Bool
			clock := func() time.Time {
				if !raised.Load() && spilledCell(filepath.Join(dir, "sensitivity")) && raised.CompareAndSwap(false, true) {
					if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
						t.Errorf("raising SIGINT: %v", err)
					}
					select {
					case <-ctx.Done():
					case <-time.After(30 * time.Second):
						t.Error("SIGINT did not cancel the run within 30s")
					}
				}
				return obs.SystemClock()
			}
			return driver(obs.WithMetrics(ctx, obs.New(clock)), plan)
		}
		return run(ctx, interruptArgs("-spill", dir), &out, &errw)
	}()
	stop()
	if err == nil {
		t.Fatal("run finished although SIGINT landed mid-grid")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted run returned %v, want context.Canceled in chain", err)
	}
	if cli.ExitCode(err) != cli.ExitPartial {
		t.Fatalf("interrupted spill run exit code %d, want %d (partial)", cli.ExitCode(err), cli.ExitPartial)
	}
	if !strings.Contains(err.Error(), "-resume") {
		t.Errorf("interrupt error %v does not tell the user how to resume", err)
	}

	manifest := filepath.Join(t.TempDir(), "resume.json")
	got, _, err := runObs(t, interruptArgs("-resume", dir, "-metrics", manifest))
	if err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	if got != ref {
		t.Errorf("resumed stdout differs from uninterrupted run:\n--- reference ---\n%s\n--- resumed ---\n%s", ref, got)
	}
	mf := readManifest(t, manifest)
	if mf.Metrics.CellsResumed < 1 {
		t.Error("resume manifest records no resumed cells despite the partial store")
	}
	if mf.Metrics.CellsTotal != 25 {
		t.Errorf("cells_total = %d, want 25", mf.Metrics.CellsTotal)
	}
	if mf.Metrics.CellsResumed+mf.Metrics.CellsDone != mf.Metrics.CellsTotal {
		t.Errorf("resumed %d + recomputed %d != total %d: the manifest split must account for every cell",
			mf.Metrics.CellsResumed, mf.Metrics.CellsDone, mf.Metrics.CellsTotal)
	}
}

// spilledCell reports whether the spill store under dir holds a shard
// with at least one cell.
func spilledCell(dir string) bool {
	shards, _ := filepath.Glob(filepath.Join(dir, "shard-*.grid"))
	for _, sh := range shards {
		if info, err := os.Stat(sh); err == nil && info.Size() > 0 {
			return true
		}
	}
	return false
}

func readManifest(t *testing.T, path string) obs.Manifest {
	t.Helper()
	var mf obs.Manifest
	if err := json.Unmarshal(readFile(t, path), &mf); err != nil {
		t.Fatalf("manifest parse: %v", err)
	}
	if mf.Metrics == nil {
		t.Fatal("manifest has no metrics snapshot")
	}
	return mf
}
