package main

// -trace-format colt must reproduce the CSV loader's output byte for
// byte from a converted store, and reject unknown formats, empty
// directories and corrupt stores with errors that name the cause.

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
	traces, _, err := gtrace.LoadEC2LogDirOpts(csvDir, gtrace.LoadOptions{})
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
	got := runStdout(t, "-exp", "table3", "-tracedir", coltDir, "-trace-format", "colt")
	if got != ref {
		t.Fatalf("-trace-format colt output differs from the CSV loader:\n--- csv\n%s\n--- colt\n%s", ref, got)
	}
}

func TestTraceFormatErrors(t *testing.T) {
	var out strings.Builder
	// Unknown format is a usage error.
	err := run(context.Background(), []string{"-trace-format", "parquet"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "trace-format") {
		t.Fatalf("err = %v, want unknown -trace-format usage error", err)
	}
	// A directory without stores names the converter.
	err = run(context.Background(), []string{"-exp", "table3", "-tracedir", t.TempDir(), "-trace-format", "colt"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "ritrace convert") {
		t.Fatalf("err = %v, want missing-store error pointing at ritrace convert", err)
	}
	// A corrupt store fails strict loads with a classified coltrace error.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "bad.colt"), []byte("RICTgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), []string{"-exp", "table3", "-tracedir", dir, "-trace-format", "colt"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "bad.colt") {
		t.Fatalf("err = %v, want error naming bad.colt", err)
	}
}
