package main

// Golden tests pin riexp's sweep and sensitivity output at the default
// test scale (TestScaleConfig: 90 users, 60-day horizon, seed 2018).
// Every quantity in these tables is deterministic — the cohort, the
// purchasing behaviors and the selling policies are all seeded — so
// the files assert byte-exact output. Regenerate after an intentional
// change with:
//
//	go test ./cmd/riexp -run TestGolden -update

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs use the full test-scale cohort; skipped in -short mode")
	}
	cases := []struct {
		name string
		args []string
	}{
		{name: "sweep-k", args: []string{"-exp", "sweep-k"}},
		{name: "sweep-a", args: []string{"-exp", "sweep-a"}},
		{name: "sensitivity", args: []string{"-exp", "sensitivity"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(context.Background(), tc.args, &out, io.Discard); err != nil {
				t.Fatalf("run(%v): %v", tc.args, err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			if got := out.String(); got != string(want) {
				t.Errorf("output differs from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s",
					path, want, got)
			}
		})
	}
}

// TestGoldenParallelismSmoke asserts the -parallelism flag is accepted
// and does not change results: the golden comparison above runs at the
// default worker count, so matching a serial run at explicit worker
// counts pins the whole CLI path's determinism, for every experiment
// that fans out over the worker pool. The smaller cohorts keep the
// matrix fast.
func TestGoldenParallelismSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs use the full test-scale cohort; skipped in -short mode")
	}
	exps := []struct {
		name string
		args []string
	}{
		{name: "sweep-k", args: []string{"-exp", "sweep-k"}},
		{name: "all", args: []string{"-exp", "all", "-pergroup", "4"}},
		{name: "sweep-a", args: []string{"-exp", "sweep-a", "-pergroup", "3"}},
		{name: "sensitivity", args: []string{"-exp", "sensitivity", "-pergroup", "2"}},
		{name: "extensions", args: []string{"-exp", "extensions", "-pergroup", "3"}},
		{name: "market", args: []string{"-exp", "market", "-pergroup", "3"}},
		{name: "resell", args: []string{"-exp", "resell", "-pergroup", "3"}},
		{name: "audit", args: []string{"-exp", "audit", "-pergroup", "2"}},
	}
	for _, exp := range exps {
		t.Run(exp.name, func(t *testing.T) {
			ref := runStdout(t, append([]string{"-parallelism", "1"}, exp.args...)...)
			for _, par := range []int{2, 4, 8, runtime.NumCPU()} {
				got := runStdout(t, append([]string{"-parallelism", fmt.Sprint(par)}, exp.args...)...)
				if got != ref {
					t.Errorf("-parallelism %d output differs from serial:\n%s", par, got)
				}
			}
		})
	}
}
