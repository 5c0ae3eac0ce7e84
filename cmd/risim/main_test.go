package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestRunSyntheticProfiles(t *testing.T) {
	for _, profile := range []string{"stable", "moderate", "volatile"} {
		t.Run(profile, func(t *testing.T) {
			var out strings.Builder
			args := []string{"-synthetic", profile, "-hours", "9000"}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{"Keep-Reserved", "A_{3T/4}", "A_{T/2}", "A_{T/4}", "All-Selling"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("output missing %q:\n%s", want, out.String())
				}
			}
		})
	}
}

func TestRunBehaviors(t *testing.T) {
	for _, behavior := range []string{"all-reserved", "random", "wang-online", "wang-variant"} {
		t.Run(behavior, func(t *testing.T) {
			var out strings.Builder
			args := []string{"-synthetic", "stable", "-behavior", behavior, "-hours", "9000"}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), behavior) {
				t.Errorf("output missing behavior %q", behavior)
			}
		})
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.csv")
	var b strings.Builder
	b.WriteString("# user: filetest\nhour,instances\n")
	for h := 0; h < 400; h++ {
		fmt.Fprintf(&b, "%d,3\n", h)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-trace", path, "-hours", "9000"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "filetest") {
		t.Errorf("output missing trace user:\n%s", out.String())
	}
}

func TestRunShortHorizonNote(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-synthetic", "stable", "-hours", "100"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "earliest checkpoint") {
		t.Errorf("short-horizon note missing:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "no input", args: nil},
		{name: "both inputs", args: []string{"-trace", "x", "-synthetic", "stable"}},
		{name: "unknown profile", args: []string{"-synthetic", "weird"}},
		{name: "unknown instance", args: []string{"-synthetic", "stable", "-instance", "z9.mega"}},
		{name: "unknown behavior", args: []string{"-synthetic", "stable", "-behavior", "yolo"}},
		{name: "missing trace file", args: []string{"-trace", "/nonexistent/x.csv"}},
		{name: "bad flag", args: []string{"-nope"}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tt.args, &out); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
}

func TestRunExtraPolicies(t *testing.T) {
	for _, policy := range []string{"multi", "rand-exp", "rand-uniform", "0.6"} {
		t.Run(policy, func(t *testing.T) {
			var out strings.Builder
			args := []string{"-synthetic", "stable", "-hours", "9000", "-policy", policy}
			if err := run(args, &out); err != nil {
				t.Fatal(err)
			}
			// Six rows now: the base five plus the extension.
			if got := strings.Count(out.String(), "\n"); got < 9 {
				t.Errorf("output too short for six policies:\n%s", out.String())
			}
		})
	}
	var out strings.Builder
	if err := run([]string{"-synthetic", "stable", "-policy", "bogus"}, &out); err == nil {
		t.Error("unknown policy accepted")
	}
	if err := run([]string{"-synthetic", "stable", "-policy", "1.5"}, &out); err == nil {
		t.Error("invalid fraction accepted")
	}
}

func TestRunDumpHours(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hours.csv")
	var out strings.Builder
	if err := run([]string{"-synthetic", "stable", "-hours", "9000", "-dump", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "hour,demand") {
		t.Errorf("dump header: %.40s", data)
	}
	if err := run([]string{"-synthetic", "stable", "-dump", "/nonexistent-dir/x.csv"}, &out); err == nil {
		t.Error("bad dump path accepted")
	}
}

// TestRunDumpGolden pins the bytes of a -dump CSV: its row count and
// SHA-256, plus every sold-hour row spelled out so a diff names the
// hours that moved. Rewrite with
//
//	go test ./cmd/risim -run TestRunDumpGolden -update
func TestRunDumpGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hours.csv")
	var out strings.Builder
	if err := run([]string{"-synthetic", "stable", "-hours", "9000", "-dump", path}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var got bytes.Buffer
	fmt.Fprintf(&got, "rows=%d sha256=%x\n", len(lines), sha256.Sum256(data))
	for _, line := range lines[1:] {
		if !strings.HasSuffix(line, ",0") {
			fmt.Fprintln(&got, line)
		}
	}
	golden := filepath.Join("testdata", "dump.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("dump differs from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s", golden, want, got.Bytes())
	}
}
