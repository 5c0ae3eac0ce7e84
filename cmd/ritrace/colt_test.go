package main

// Tests for the columnar-store paths of ritrace: convert -to colt must
// round-trip a directory of EC2 usage logs bit-exactly, inspect must
// summarize a committed fixture byte-for-byte (golden, regenerate with
// go test ./cmd/ritrace -run TestInspectColtGolden -update), and every
// failure must map onto the shared internal/cli exit-code vocabulary.

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rimarket/internal/cli"
	"rimarket/internal/coltrace"
	"rimarket/internal/gtrace"
	"rimarket/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files and fixtures with current output")

// decodeStore decodes the store at path into its traces, as the trace
// loader does.
func decodeStore(t *testing.T, path string) []workload.Trace {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trs, err := coltrace.DecodeTraces(data)
	if err != nil {
		t.Fatal(err)
	}
	return trs
}

// assertSameTraces compares two trace sets user by user. Packing into
// a store groups traces by length, so the decoded order differs from
// the loader's user-name order; what must survive exactly is the set
// of users and every user's full demand vector.
func assertSameTraces(t *testing.T, got, want []workload.Trace) {
	t.Helper()
	byUser := make(map[string][]int, len(got))
	for _, tr := range got {
		byUser[tr.User] = tr.Demand
	}
	if len(byUser) != len(want) {
		t.Fatalf("store has %d users, logs have %d", len(byUser), len(want))
	}
	for _, tr := range want {
		if !reflect.DeepEqual(byUser[tr.User], tr.Demand) {
			t.Errorf("user %s: demand %v, want %v", tr.User, byUser[tr.User], tr.Demand)
		}
	}
}

// TestConvertEC2LogToColtRoundTrip pins the satellite round trip: a
// seeded cohort written as per-user CSVs, packed into a .colt store,
// must decode back to exactly the traces the CSV loader sees. Cohort
// traces have group-dependent active lengths, so the store carries one
// rectangular record per distinct length (4 at this seed).
func TestConvertEC2LogToColtRoundTrip(t *testing.T) {
	logs := t.TempDir()
	var out strings.Builder
	if err := run([]string{"gen", "-out", logs, "-pergroup", "2", "-hours", "300", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(t.TempDir(), "cohort.colt")
	out.Reset()
	if err := run([]string{"convert", "-from", "ec2-log", "-to", "colt", "-in", logs, "-out", store}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "6 users across 4 cohorts") {
		t.Errorf("convert output: %s", out.String())
	}

	want, _, err := gtrace.LoadFS(os.DirFS(logs), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := decodeStore(t, store)
	assertSameTraces(t, got, want)

	// The store must also inspect cleanly.
	out.Reset()
	if err := run([]string{"inspect", "-trace", store}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cohorts: 4") {
		t.Errorf("inspect output: %s", out.String())
	}
}

// TestConvertRaggedTracesToColt adds a hand-written short trace to a
// generated directory and checks that conversion never pads, clips or
// zero-fills: every demand vector comes back at its original length.
func TestConvertRaggedTracesToColt(t *testing.T) {
	logs := t.TempDir()
	var out strings.Builder
	if err := run([]string{"gen", "-out", logs, "-pergroup", "1", "-hours", "200", "-seed", "11"}, &out); err != nil {
		t.Fatal(err)
	}
	short := workload.Trace{User: "short-lived", Demand: []int{9, 0, 9}}
	f, err := os.Create(filepath.Join(logs, "short-lived.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := gtrace.WriteEC2Log(f, short); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(t.TempDir(), "ragged.colt")
	out.Reset()
	if err := run([]string{"convert", "-from", "ec2-log", "-to", "colt", "-in", logs, "-out", store}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "4 users across") {
		t.Errorf("convert output: %s", out.String())
	}

	want, _, err := gtrace.LoadFS(os.DirFS(logs), gtrace.LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	assertSameTraces(t, decodeStore(t, store), want)
}

// TestInspectColtGolden pins the inspect rendering of a committed
// two-cohort store (one record carrying a reservation column) byte for
// byte. The fixture itself is regenerated together with the golden, so
// -update also re-exercises the encoder.
func TestInspectColtGolden(t *testing.T) {
	fixture := filepath.Join("testdata", "cohort.colt")
	golden := filepath.Join("testdata", "inspect-colt.golden")
	if *update {
		traces := []workload.Trace{
			{User: "web", Demand: []int{3, 3, 2, 1, 0, 4}},
			{User: "db", Demand: []int{2, 2, 2, 2, 2, 2}},
			{User: "cron", Demand: []int{0, 5, 0}},
		}
		cohorts, err := coltrace.GroupTraces(traces)
		if err != nil {
			t.Fatal(err)
		}
		// Give the first record a reservation column so the golden
		// covers both "reservations: yes" and "reservations: no".
		cohorts[0].NewRes = make([]int32, len(cohorts[0].Demand))
		cohorts[0].NewRes[0] = 2
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := coltrace.WriteFile(fixture, cohorts...); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	if err := run([]string{"inspect", "-trace", fixture}, &out); err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("output differs from %s (run with -update after intentional changes)\n--- want\n%s--- got\n%s",
			golden, want, got)
	}
}

// TestColtExitCodes maps each colt failure mode onto the shared
// internal/cli vocabulary: malformed command lines exit 2, bad inputs
// exit 1, success exits 0.
func TestColtExitCodes(t *testing.T) {
	corrupt := filepath.Join(t.TempDir(), "bad.colt")
	if err := os.WriteFile(corrupt, []byte("RICTgarbage-not-a-store"), 0o644); err != nil {
		t.Fatal(err)
	}
	logs := t.TempDir()
	var setup strings.Builder
	if err := run([]string{"gen", "-out", logs, "-pergroup", "1", "-hours", "50", "-seed", "2"}, &setup); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name    string
		args    []string
		code    int
		mention string
	}{
		{
			name: "convert to colt succeeds",
			args: []string{"convert", "-from", "ec2-log", "-to", "colt", "-in", logs,
				"-out", filepath.Join(t.TempDir(), "ok.colt")},
			code: cli.ExitOK,
		},
		{
			name:    "unknown -from is usage",
			args:    []string{"convert", "-from", "parquet", "-in", logs},
			code:    cli.ExitUsage,
			mention: "parquet",
		},
		{
			// -to is rejected before the input is read: no -in needed.
			name:    "unknown -to is usage",
			args:    []string{"convert", "-from", "ec2-log", "-to", "parquet"},
			code:    cli.ExitUsage,
			mention: "parquet",
		},
		{
			name:    "bad convert flag is usage",
			args:    []string{"convert", "-zzz"},
			code:    cli.ExitUsage,
			mention: "zzz",
		},
		{
			name: "missing ec2-log input is runtime error",
			args: []string{"convert", "-from", "ec2-log", "-to", "colt",
				"-in", "/nonexistent-dir", "-out", filepath.Join(t.TempDir(), "x.colt")},
			code: cli.ExitError,
		},
		{
			name:    "corrupt store is runtime error",
			args:    []string{"inspect", "-trace", corrupt},
			code:    cli.ExitError,
			mention: "bad.colt",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tt.args, &out)
			if got := cli.ExitCode(err); got != tt.code {
				t.Fatalf("exit code = %d (err %v), want %d", got, err, tt.code)
			}
			if tt.mention != "" && (err == nil || !strings.Contains(err.Error(), tt.mention)) {
				t.Errorf("error %v does not mention %q", err, tt.mention)
			}
		})
	}
}
