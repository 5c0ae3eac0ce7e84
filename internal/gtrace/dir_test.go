package gtrace

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rimarket/internal/coltrace"
	"rimarket/internal/workload"
)

func writeTraceFile(t *testing.T, path string, tr workload.Trace, compress bool) {
	t.Helper()
	var buf bytes.Buffer
	if compress {
		zw := gzip.NewWriter(&buf)
		if err := WriteEC2Log(zw, tr); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := WriteEC2Log(&buf, tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadEC2LogDir loads logs and a cohort store from one directory:
// every trace file is read whatever its format, the report lists the
// files in name order, and the traces come back in user-name order.
func TestLoadEC2LogDir(t *testing.T) {
	dir := t.TempDir()
	writeTraceFile(t, filepath.Join(dir, "b.csv"), workload.Trace{User: "bob", Demand: []int{1, 2}}, false)
	writeTraceFile(t, filepath.Join(dir, "a.csv.gz"), workload.Trace{User: "zoe", Demand: []int{3}}, true)
	store, err := coltrace.FromTraces([]workload.Trace{{User: "carol", Demand: []int{4}}, {User: "amy", Demand: []int{5}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := coltrace.WriteFile(filepath.Join(dir, "c"+coltrace.Ext), store); err != nil {
		t.Fatal(err)
	}
	// Non-trace files and subdirectories are ignored.
	if err := os.WriteFile(filepath.Join(dir, "README.md"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}

	traces, report, err := LoadFS(os.DirFS(dir), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.csv.gz", "b.csv", "c.colt"}; !reflect.DeepEqual(report.Loaded, want) {
		t.Errorf("report.Loaded = %v, want %v", report.Loaded, want)
	}
	var users []string
	for _, tr := range traces {
		users = append(users, tr.User)
	}
	if want := []string{"amy", "bob", "carol", "zoe"}; !reflect.DeepEqual(users, want) {
		t.Errorf("users = %v, want %v (sorted by user, not by file)", users, want)
	}
}

func TestLoadEC2LogDirNamesAnonymousTraces(t *testing.T) {
	dir := t.TempDir()
	// A header-less file: the user defaults to the file name.
	if err := os.WriteFile(filepath.Join(dir, "webapp.csv"), []byte("0,3\n1,4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	traces, _, err := LoadFS(os.DirFS(dir), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if traces[0].User != "webapp" {
		t.Errorf("user = %q, want webapp", traces[0].User)
	}
}

// TestLoadEC2LogDirReportSurvives checks that a strict failure still
// returns the ingestion report, naming the files that had loaded
// cleanly before the bad one, and that a best-effort load of the same
// directory reports the bad file as skipped.
func TestLoadEC2LogDirReportSurvives(t *testing.T) {
	dir := t.TempDir()
	writeTraceFile(t, filepath.Join(dir, "a-good.csv"), workload.Trace{User: "alice", Demand: []int{1, 2}}, false)
	if err := os.WriteFile(filepath.Join(dir, "z-corrupt.csv"), []byte("not,a,trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	traces, report, err := LoadFS(os.DirFS(dir), LoadOptions{})
	if err == nil {
		t.Fatal("strict load over a corrupt file succeeded")
	}
	if traces != nil {
		t.Errorf("strict failure returned traces: %v", traces)
	}
	if report == nil {
		t.Fatal("strict failure dropped the LoadReport")
	}
	if len(report.Loaded) != 1 || report.Loaded[0] != "a-good.csv" {
		t.Errorf("report.Loaded = %v, want [a-good.csv]", report.Loaded)
	}

	optTraces, optReport, optErr := LoadFS(os.DirFS(dir), LoadOptions{Policy: BestEffort})
	if optErr != nil {
		t.Fatal(optErr)
	}
	if len(optTraces) != 1 || !optReport.Partial() {
		t.Fatalf("best-effort load = %d traces, partial=%v", len(optTraces), optReport.Partial())
	}
	if optReport.Skipped[0].File != "z-corrupt.csv" {
		t.Errorf("skipped = %v, want z-corrupt.csv", optReport.Skipped)
	}
}

func TestLoadEC2LogDirErrors(t *testing.T) {
	if _, _, err := LoadFS(os.DirFS("/nonexistent-dir"), LoadOptions{}); err == nil {
		t.Error("missing dir accepted")
	}
	if _, _, err := LoadFS(os.DirFS(t.TempDir()), LoadOptions{}); !errors.Is(err, ErrNoTraces) {
		t.Errorf("empty dir: err = %v, want ErrNoTraces", err)
	}
	bad := t.TempDir()
	if err := os.WriteFile(filepath.Join(bad, "x.csv"), []byte("not,a,trace\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadFS(os.DirFS(bad), LoadOptions{}); err == nil {
		t.Error("malformed trace accepted")
	}
}
