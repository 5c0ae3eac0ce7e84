package main

// A -tracedir of columnar cohort stores must reproduce the output of
// the usage logs it was converted from byte for byte, whatever order
// the store keeps its users in; a directory holding both is refused as
// naming every user twice; empty directories and corrupt stores fail
// with errors that name the cause.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rimarket/internal/cli"
	"rimarket/internal/coltrace"
	"rimarket/internal/gtrace"
	"rimarket/internal/workload"
)

func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatalf("riexp %s: %v", strings.Join(args, " "), err)
	}
	return out.String()
}

// writeTraceDirs builds a CSV trace directory and its converted .colt
// twin, returning both.
func writeTraceDirs(t *testing.T) (csvDir, coltDir string) {
	t.Helper()
	csvDir, coltDir = t.TempDir(), t.TempDir()
	stable := "# user: s1\nhour,instances\n"
	for h := 0; h < 300; h++ {
		stable += fmt.Sprintf("%d,5\n", h)
	}
	files := map[string]string{
		"stable.csv":   stable,
		"volatile.csv": "# user: v1\nhour,instances\n0,40\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(csvDir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	traces, _, err := gtrace.LoadFS(os.DirFS(csvDir), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One cohort per trace: lengths differ, and the columnar format is
	// rectangular per cohort.
	for _, tr := range traces {
		c, err := coltrace.FromTraces([]workload.Trace{tr})
		if err != nil {
			t.Fatal(err)
		}
		if err := coltrace.WriteFile(filepath.Join(coltDir, tr.User+coltrace.Ext), c); err != nil {
			t.Fatal(err)
		}
	}
	return csvDir, coltDir
}

func TestTraceFormatColtStdoutIdentity(t *testing.T) {
	csvDir, coltDir := writeTraceDirs(t)
	ref := runStdout(t, "-exp", "table3", "-tracedir", csvDir)
	got := runStdout(t, "-exp", "table3", "-tracedir", coltDir)
	if got != ref {
		t.Fatalf(".colt output differs from the CSV logs':\n--- csv\n%s\n--- colt\n%s", ref, got)
	}
}

func TestTraceFormatErrors(t *testing.T) {
	var out strings.Builder
	// A directory without trace files says which suffixes it looked for.
	err := run(context.Background(), []string{"-exp", "table3", "-tracedir", t.TempDir()}, &out, io.Discard)
	if !errors.Is(err, gtrace.ErrNoTraces) || !strings.Contains(err.Error(), ".colt") {
		t.Fatalf("err = %v, want ErrNoTraces naming .colt", err)
	}
	// A corrupt store fails strict loads with a classified coltrace error.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.colt"), []byte("RICTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-exp", "table3", "-tracedir", dir}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bad.colt") {
		t.Fatalf("err = %v, want error naming bad.colt", err)
	}
}

// TestOneLoader converts a ragged multi-user log directory the way
// ritrace convert -to colt does: the store groups users by trace
// length, so it keeps them in another order than the logs' file names.
// The plan assigns behaviors and seeds by user index, so only a loader
// that orders users by name prints the same bytes for both.
func TestOneLoader(t *testing.T) {
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 4, Hours: 1500, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	logDir, coltDir, bothDir := t.TempDir(), t.TempDir(), t.TempDir()
	for _, dir := range []string{logDir, bothDir} {
		for _, tr := range traces {
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
	}
	// Logs drop trailing idle hours, so the loaded traces are ragged.
	loaded, _, err := gtrace.LoadFS(os.DirFS(logDir), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cohorts, err := coltrace.GroupTraces(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if len(cohorts) < 2 {
		t.Fatalf("logs grouped into %d cohort, want a ragged directory", len(cohorts))
	}
	for _, dir := range []string{coltDir, bothDir} {
		if err := coltrace.WriteFile(filepath.Join(dir, "cohort"+coltrace.Ext), cohorts...); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("store matches logs", func(t *testing.T) {
		ref := runStdout(t, "-exp", "all", "-tracedir", logDir)
		if got := runStdout(t, "-exp", "all", "-tracedir", coltDir); got != ref {
			t.Fatalf("-exp all over the store differs from the logs:\n--- logs\n%s\n--- store\n%s", ref, got)
		}
	})
	t.Run("store beside logs", func(t *testing.T) {
		var out strings.Builder
		err := run(context.Background(), []string{"-exp", "all", "-tracedir", bothDir}, &out, io.Discard)
		var dup *gtrace.DuplicateUserError
		if !errors.As(err, &dup) || cli.ExitCode(err) != 1 {
			t.Fatalf("err = %v (exit %d), want a duplicate-user error, exit 1", err, cli.ExitCode(err))
		}
		if out.Len() != 0 {
			t.Errorf("refused load printed %d bytes", out.Len())
		}
	})
}
