package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rimarket/internal/cli"
	"rimarket/internal/obs"
)

// runObs invokes the CLI capturing stdout and stderr separately.
func runObs(t *testing.T, args []string) (stdout, stderr string, err error) {
	t.Helper()
	var out, errw bytes.Buffer
	err = run(context.Background(), args, &out, &errw)
	return out.String(), errw.String(), err
}

// readFile loads a file the run was expected to produce.
func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// TestObsMetricsManifest runs a small grid with -metrics and checks the
// manifest file records the run's provenance and counters.
func TestObsMetricsManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	args := fastArgs("-exp", "table2", "-seed", "42", "-metrics", path)
	stdout, _, err := runObs(t, args)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stdout, "Table II") {
		t.Fatalf("stdout missing Table II:\n%s", stdout)
	}

	var mf obs.Manifest
	data := readFile(t, path)
	if err := json.Unmarshal(data, &mf); err != nil {
		t.Fatalf("manifest parse: %v\n%s", err, data)
	}
	if mf.Schema != obs.ManifestSchema {
		t.Errorf("schema = %d, want %d", mf.Schema, obs.ManifestSchema)
	}
	if mf.Tool != "riexp" {
		t.Errorf("tool = %q, want riexp", mf.Tool)
	}
	if mf.Seed != 42 {
		t.Errorf("seed = %d, want 42 (resolved config seed)", mf.Seed)
	}
	if mf.Outcome.ExitCode != cli.ExitOK || mf.Outcome.Error != "" {
		t.Errorf("outcome = %+v, want exit 0, no error", mf.Outcome)
	}
	if mf.Metrics == nil {
		t.Fatal("manifest has no metrics snapshot")
	}
	if mf.Metrics.EngineRuns == 0 || mf.Metrics.JobsDone == 0 {
		t.Errorf("metrics look empty: engine_runs=%d jobs_done=%d",
			mf.Metrics.EngineRuns, mf.Metrics.JobsDone)
	}
	if mf.Metrics.JobsDone != mf.Metrics.JobsTotal {
		t.Errorf("jobs done %d != total %d on a clean run",
			mf.Metrics.JobsDone, mf.Metrics.JobsTotal)
	}
	if mf.GoVersion == "" {
		t.Error("manifest missing go_version")
	}
	if mf.Mem == nil || mf.Mem.Mallocs == 0 {
		t.Error("manifest missing mem snapshot")
	}
	if mf.Config == nil {
		t.Error("manifest missing resolved config")
	}
	if mf.WallNs < 0 || mf.End.Before(mf.Start) {
		t.Errorf("bad timing: start=%v end=%v wall=%d", mf.Start, mf.End, mf.WallNs)
	}
}

// TestObsMarketManifest: -exp market plays its buyer rates through the
// market session's loop, so the manifest's market counters add up the
// rendered table's listings, sales and expiries over every rate.
func TestObsMarketManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	stdout, _, err := runObs(t, fastArgs("-exp", "market", "-metrics", path))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var listed, sold, expired int64
	rows := 0
	for _, line := range strings.Split(stdout, "\n") {
		var rate float64
		var l, s, e int64
		if n, _ := fmt.Sscanf(line, "%f %d %d %d", &rate, &l, &s, &e); n == 4 {
			listed, sold, expired, rows = listed+l, sold+s, expired+e, rows+1
		}
	}
	if rows != 4 || listed == 0 {
		t.Fatalf("parsed %d rate rows listing %d from:\n%s", rows, listed, stdout)
	}
	var mf obs.Manifest
	if err := json.Unmarshal(readFile(t, path), &mf); err != nil {
		t.Fatalf("manifest parse: %v", err)
	}
	if mf.Metrics == nil || mf.Metrics.Market == nil {
		t.Fatal("manifest has no market section after -exp market")
	}
	mk := mf.Metrics.Market
	if mk.Listings != listed || mk.Trades != sold || mk.Expiries != expired {
		t.Errorf("manifest listings/trades/expiries %d/%d/%d, table %d/%d/%d",
			mk.Listings, mk.Trades, mk.Expiries, listed, sold, expired)
	}
}

// TestObsStdoutIdentical proves the observability flags do not perturb
// the experiment output: stdout is byte-identical with and without
// -metrics/-progress.
func TestObsStdoutIdentical(t *testing.T) {
	base := fastArgs("-exp", "fig2", "-seed", "7")
	plain, _, err := runObs(t, base)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	observed, stderrText, err := runObs(t, append(append([]string{}, base...), "-metrics", path, "-progress"))
	if err != nil {
		t.Fatalf("observed run: %v", err)
	}
	if plain != observed {
		t.Errorf("stdout differs with observability on:\n--- plain ---\n%s\n--- observed ---\n%s", plain, observed)
	}
	if plain == "" {
		t.Fatal("vacuous: no output produced")
	}
	if !strings.Contains(stderrText, "cells") || !strings.Contains(stderrText, "jobs") {
		t.Errorf("-progress printed no final progress line; stderr:\n%s", stderrText)
	}
}

// TestObsPprof exercises the live pprof listener on an OS-assigned port
// and verifies the advertised endpoint answers while the run is active.
func TestObsPprof(t *testing.T) {
	// The pprof server only lives for the duration of the run; the
	// -pprof flow with address validation is the real subject here. A
	// bound :0 listener must start (exit 0) and report its address.
	_, stderrText, err := runObs(t, fastArgs("-exp", "table2", "-pprof", "127.0.0.1:0"))
	if err != nil {
		t.Fatalf("run with -pprof: %v", err)
	}
	if !strings.Contains(stderrText, "pprof listening on http://") {
		t.Errorf("stderr missing pprof banner:\n%s", stderrText)
	}
	// After Finish the server must be down: extract the address and
	// confirm the port no longer answers.
	line := stderrText[strings.Index(stderrText, "http://"):]
	addr := strings.TrimSpace(strings.TrimPrefix(strings.Fields(line)[0], "http://"))
	addr = strings.TrimSuffix(addr, "/debug/pprof/")
	if _, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Errorf("pprof server at %s still answering after Finish", addr)
	}
}

// TestObsFlagValidation pins the exit codes for bad observability
// flag values: failures surface before any experiment work runs.
func TestObsFlagValidation(t *testing.T) {
	tests := []struct {
		name string
		args []string
		code int
		want string
	}{
		{
			name: "bad pprof address",
			args: fastArgs("-exp", "table2", "-pprof", "999.999.999.999:bogus"),
			code: cli.ExitError,
			want: "pprof listen",
		},
		{
			name: "unwritable metrics path",
			args: fastArgs("-exp", "table2", "-metrics", filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")),
			code: cli.ExitError,
			want: "metrics manifest",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := runObs(t, tc.args)
			if err == nil {
				t.Fatal("expected an error")
			}
			if got := cli.ExitCode(err); got != tc.code {
				t.Errorf("exit code = %d, want %d (err: %v)", got, tc.code, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q missing %q", err, tc.want)
			}
		})
	}
}

// TestObsManifestRecordsFailure checks a failed run still writes the
// manifest, with the error and exit code in the outcome block.
func TestObsManifestRecordsFailure(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fail.json")
	_, _, err := runObs(t, fastArgs("-exp", "no-such-experiment", "-metrics", path))
	if err == nil {
		t.Fatal("expected a usage error")
	}
	if got := cli.ExitCode(err); got != cli.ExitUsage {
		t.Fatalf("exit code = %d, want %d", got, cli.ExitUsage)
	}
	var mf obs.Manifest
	if jerr := json.Unmarshal(readFile(t, path), &mf); jerr != nil {
		t.Fatalf("manifest parse: %v", jerr)
	}
	if mf.Outcome.ExitCode != cli.ExitUsage {
		t.Errorf("manifest exit code = %d, want %d", mf.Outcome.ExitCode, cli.ExitUsage)
	}
	if !strings.Contains(mf.Outcome.Error, "unknown experiment") {
		t.Errorf("manifest error = %q, want the run error", mf.Outcome.Error)
	}
}

// TestObsManifestPartialIngestion checks the manifest records skipped
// trace files and the partial exit code on best-effort ingestion.
func TestObsManifestPartialIngestion(t *testing.T) {
	dir := writeMixedTraceDir(t)
	path := filepath.Join(t.TempDir(), "partial.json")
	_, _, err := runObs(t, []string{"-exp", "table3",
		"-tracedir", dir, "-trace-errors", "best-effort", "-metrics", path})
	if err == nil {
		t.Fatal("expected a partial-ingestion error")
	}
	if got := cli.ExitCode(err); got != cli.ExitPartial {
		t.Fatalf("exit code = %d, want %d (err: %v)", got, cli.ExitPartial, err)
	}
	var mf obs.Manifest
	if jerr := json.Unmarshal(readFile(t, path), &mf); jerr != nil {
		t.Fatalf("manifest parse: %v", jerr)
	}
	if mf.Trace == nil {
		t.Fatal("manifest missing trace ingestion block")
	}
	if len(mf.Trace.Loaded) != 2 || len(mf.Trace.Skipped) != 1 {
		t.Fatalf("trace block = %+v, want 2 loaded + 1 skipped", mf.Trace)
	}
	if mf.Trace.Skipped[0].File != "corrupt.csv" || mf.Trace.Skipped[0].Err == "" {
		t.Errorf("skipped entry incomplete: %+v", mf.Trace.Skipped[0])
	}
	if mf.Outcome.ExitCode != cli.ExitPartial {
		t.Errorf("manifest exit code = %d, want %d", mf.Outcome.ExitCode, cli.ExitPartial)
	}
}
