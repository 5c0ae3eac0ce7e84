package main

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
	"rimarket/internal/gtrace"
)

// fastArgs shrinks the cohort so every CLI test is quick.
func fastArgs(extra ...string) []string {
	return append([]string{"-pergroup", "5"}, extra...)
}

func TestRunExperiments(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "table1",
			args: []string{"-exp", "table1"},
			want: []string{"Table I", "d2.xlarge", "Partial Upfront", "$1506"},
		},
		{
			name: "table2",
			args: fastArgs("-exp", "table2"),
			want: []string{"Table II", "A_{3T/4}", "Keep-Reserved"},
		},
		{
			name: "table3",
			args: fastArgs("-exp", "table3"),
			want: []string{"Table III", "Group 1", "All users"},
		},
		{
			name: "fig2",
			args: fastArgs("-exp", "fig2"),
			want: []string{"Fig. 2", "Group 1", "Group 3"},
		},
		{
			name: "fig3a",
			args: fastArgs("-exp", "fig3a"),
			want: []string{"Fig. 3", "A_{3T/4}", "users saving"},
		},
		{
			name: "fig3b",
			args: fastArgs("-exp", "fig3b"),
			want: []string{"A_{T/2}"},
		},
		{
			name: "fig3c",
			args: fastArgs("-exp", "fig3c"),
			want: []string{"A_{T/4}"},
		},
		{
			name: "fig4a",
			args: fastArgs("-exp", "fig4a"),
			want: []string{"Fig. 4", "Group 1", "mean normalized cost"},
		},
		{
			name: "fig4c",
			args: fastArgs("-exp", "fig4c"),
			want: []string{"Group 3"},
		},
		{
			name: "bounds",
			args: fastArgs("-exp", "bounds"),
			want: []string{"Competitive-ratio bounds", "A_{3T/4}", "adversarial measured"},
		},
		{
			name: "sweep-k",
			args: []string{"-exp", "sweep-k", "-pergroup", "3"},
			want: []string{"checkpoint fraction", "users saving"},
		},
		{
			name: "sweep-a",
			args: []string{"-exp", "sweep-a", "-pergroup", "3"},
			want: []string{"selling discount"},
		},
		{
			name: "sweep-fee",
			args: []string{"-exp", "sweep-fee", "-pergroup", "3"},
			want: []string{"marketplace fee"},
		},
		{
			name: "extensions",
			args: []string{"-exp", "extensions", "-pergroup", "3"},
			want: []string{"A_rand", "Multi"},
		},
		{
			name: "market",
			args: []string{"-exp", "market", "-pergroup", "3"},
			want: []string{"realized income", "buyers/hour"},
		},
		{
			name: "sensitivity",
			args: []string{"-exp", "sensitivity", "-pergroup", "2"},
			want: []string{"a \\ k"},
		},
		{
			name: "audit",
			args: []string{"-exp", "audit", "-pergroup", "2"},
			want: []string{"Competitive-ratio audit", "A_{3T/4}"},
		},
		{
			name: "resell",
			args: []string{"-exp", "resell", "-pergroup", "3"},
			want: []string{"hour-resell", "winner"},
		},
		{
			name: "custom discount and seed",
			args: fastArgs("-exp", "table3", "-a", "0.5", "-seed", "99"),
			want: []string{"Table III"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), tt.args, &out, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
			for _, want := range tt.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunAll(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "all", "-pergroup", "4"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "Fig. 2", "Fig. 3", "Fig. 4", "Table II", "Table III", "Competitive-ratio"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("all output missing %q", want)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown experiment", args: []string{"-exp", "nope"}},
		{name: "unknown scale", args: []string{"-scale", "huge"}},
		{name: "bad flag", args: []string{"-bogus"}},
		{name: "bad discount", args: []string{"-exp", "table3", "-a", "7", "-pergroup", "2"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), tt.args, &out, io.Discard); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

func TestRunExports(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "cohort.json")
	csvPath := filepath.Join(dir, "users.csv")
	var out strings.Builder
	args := []string{"-exp", "table3", "-pergroup", "3", "-json", jsonPath, "-csv", csvPath}
	if err := run(context.Background(), args, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{jsonPath, csvPath} {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatalf("export %s: %v", path, err)
		}
		if info.Size() == 0 {
			t.Errorf("export %s is empty", path)
		}
	}
	// Unwritable export path surfaces as an error.
	if err := run(context.Background(), []string{"-exp", "table3", "-pergroup", "2", "-json", "/nonexistent-dir/x.json"}, &out, io.Discard); err == nil {
		t.Error("bad export path accepted")
	}
}

func TestRunTraceDir(t *testing.T) {
	dir := t.TempDir()
	// Three small traces with distinct fluctuation profiles.
	files := map[string]string{
		"stable.csv":   "# user: s1\nhour,instances\n",
		"volatile.csv": "# user: v1\nhour,instances\n0,40\n",
	}
	for h := 0; h < 300; h++ {
		files["stable.csv"] += fmt.Sprintf("%d,5\n", h)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "table3", "-tracedir", dir}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table III") {
		t.Errorf("output:\n%s", out.String())
	}
	// Empty directory errors.
	if err := run(context.Background(), []string{"-exp", "table3", "-tracedir", t.TempDir()}, &out, io.Discard); err == nil {
		t.Error("empty trace dir accepted")
	}
}

// writeMixedTraceDir builds a real directory with good traces and one
// corrupt file, the shape of a partially-damaged usage-log download.
func writeMixedTraceDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	stable := "# user: s1\nhour,instances\n"
	for h := 0; h < 300; h++ {
		stable += fmt.Sprintf("%d,5\n", h)
	}
	files := map[string]string{
		"corrupt.csv":  "not,a,trace\n",
		"stable.csv":   stable,
		"volatile.csv": "# user: v1\nhour,instances\n0,40\n",
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestRunTraceDirBestEffort(t *testing.T) {
	dir := writeMixedTraceDir(t)
	var out, warn strings.Builder
	err := run(context.Background(), []string{"-exp", "table3", "-tracedir", dir, "-trace-errors", "best-effort"}, &out, &warn)
	if err == nil {
		t.Fatal("partial ingestion completed without the partial error")
	}
	if !errors.Is(err, cli.ErrPartial) {
		t.Fatalf("err = %v, want cli.ErrPartial in chain", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitPartial {
		t.Errorf("exit code %d, want %d", code, cli.ExitPartial)
	}
	// The run still rendered its results for the files that loaded.
	if !strings.Contains(out.String(), "Table III") {
		t.Errorf("partial run produced no table:\n%s", out.String())
	}
	for _, want := range []string{"partial ingestion", "corrupt.csv", "1 of 3"} {
		if !strings.Contains(warn.String(), want) {
			t.Errorf("warning missing %q:\n%s", want, warn.String())
		}
	}
}

func TestRunTraceDirStrict(t *testing.T) {
	dir := writeMixedTraceDir(t)
	var out strings.Builder
	// Strict is the default: the corrupt file fails the whole run.
	err := run(context.Background(), []string{"-exp", "table3", "-tracedir", dir}, &out, io.Discard)
	if err == nil {
		t.Fatal("strict run over a corrupt file succeeded")
	}
	var perr *gtrace.ParseError
	if !errors.As(err, &perr) || perr.File != "corrupt.csv" {
		t.Fatalf("err = %v, want *gtrace.ParseError naming corrupt.csv", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitError {
		t.Errorf("exit code %d, want %d", code, cli.ExitError)
	}
}

func TestRunTraceDirBudgetExceeded(t *testing.T) {
	dir := writeMixedTraceDir(t)
	if err := os.WriteFile(filepath.Join(dir, "also-corrupt.csv"), []byte("garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	args := []string{"-exp", "table3", "-tracedir", dir, "-trace-errors", "best-effort", "-trace-error-budget", "1"}
	err := run(context.Background(), args, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "failure budget") {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitError {
		t.Errorf("exit code %d, want %d (budget overrun is a failure, not a partial success)", code, cli.ExitError)
	}
}

func TestRunUsageErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown trace-errors policy", args: []string{"-trace-errors", "lenient"}},
		{name: "negative budget", args: []string{"-trace-error-budget", "-1"}},
		{name: "unknown flag", args: []string{"-bogus"}},
		{name: "unknown scale", args: []string{"-scale", "huge"}},
		{name: "unknown experiment", args: []string{"-exp", "nope", "-pergroup", "2"}},
		{name: "bad term", args: []string{"-term", "2"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), tt.args, &out, io.Discard)
			if code := cli.ExitCode(err); code != cli.ExitUsage {
				t.Errorf("run(%v) = %v (exit %d), want usage error (exit %d)", tt.args, err, code, cli.ExitUsage)
			}
		})
	}
}

// TestMarketFee: -exp market lists at the fixed marketplace.AmazonFee,
// so an explicit -fee, even the default 0, is a usage error that names
// it and writes no stdout, while a run without the flag succeeds.
func TestMarketFee(t *testing.T) {
	for _, fee := range []string{"0.05", "0"} {
		var out strings.Builder
		err := run(context.Background(), []string{"-exp", "market", "-pergroup", "3", "-fee", fee}, &out, io.Discard)
		if code := cli.ExitCode(err); code != cli.ExitUsage || !strings.Contains(fmt.Sprint(err), "marketplace.AmazonFee") {
			t.Errorf("-exp market -fee %s = %v (exit %d), want a usage error (exit %d) naming marketplace.AmazonFee", fee, err, code, cli.ExitUsage)
		}
		if out.Len() != 0 {
			t.Errorf("-exp market -fee %s wrote %d bytes of stdout", fee, out.Len())
		}
	}
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "market", "-pergroup", "3"}, &out, io.Discard); err != nil || out.Len() == 0 {
		t.Fatalf("-exp market without -fee = %v, %d bytes of stdout", err, out.Len())
	}
}

// TestBatchStdoutIdentity: -batch left with the streaming batch engine
// it selected. Every experiment must now reject it as a usage error
// before writing a byte of stdout, so a script that still passes it
// fails loudly instead of printing results it did not ask for.
func TestBatchStdoutIdentity(t *testing.T) {
	for _, exp := range []string{"all", "sweep-k", "sweep-a", "sensitivity", "extensions", "market", "resell", "audit"} {
		t.Run(exp, func(t *testing.T) {
			var out strings.Builder
			err := run(context.Background(), fastArgs("-exp", exp, "-batch"), &out, io.Discard)
			if code := cli.ExitCode(err); code != cli.ExitUsage {
				t.Fatalf("-exp %s -batch = %v (exit %d), want usage error (exit %d)", exp, err, code, cli.ExitUsage)
			}
			if out.Len() != 0 {
				t.Fatalf("-exp %s -batch wrote %d bytes of stdout before failing", exp, out.Len())
			}
		})
	}
}

func TestRunCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	err := run(ctx, fastArgs("-exp", "table3"), &out, io.Discard)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if code := cli.ExitCode(err); code != cli.ExitError {
		t.Errorf("exit code %d, want %d", code, cli.ExitError)
	}
}

func TestRunThreeYearTerm(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-exp", "table3", "-term", "3", "-pergroup", "3"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table III") {
		t.Errorf("output:\n%s", out.String())
	}
	if err := run(context.Background(), []string{"-exp", "table3", "-term", "2"}, &out, io.Discard); err == nil {
		t.Error("term 2 accepted")
	}
}
