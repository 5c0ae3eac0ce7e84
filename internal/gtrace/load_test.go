package gtrace

// Tests for the error-policy layer of the directory loader: strict vs
// best-effort, failure budgets, duplicate-user detection, and the
// structured errors (ErrNoTraces, ParseError, DuplicateUserError).
// Fault injection comes from internal/faultfs, so the degradation paths
// are exercised without touching the real filesystem.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/fstest"

	"rimarket/internal/faultfs"
	"rimarket/internal/workload"
)

// gzLog renders tr as a gzipped EC2 usage log.
func gzLog(t *testing.T, tr workload.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := WriteEC2Log(zw, tr); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// logCorpus builds an in-memory directory of n gzipped usage logs with
// distinct users, mirroring the 36-application EC2 dataset the paper
// evaluates on.
func logCorpus(t *testing.T, n int) fstest.MapFS {
	t.Helper()
	m := fstest.MapFS{}
	for i := 0; i < n; i++ {
		tr := workload.Trace{
			User:   fmt.Sprintf("app-%02d", i),
			Demand: []int{i + 1, i + 2, i + 3, i + 4, i + 5, i + 6, i + 7, i + 8},
		}
		m[fmt.Sprintf("app-%02d.csv.gz", i)] = &fstest.MapFile{Data: gzLog(t, tr)}
	}
	return m
}

// TestLoadBestEffortSkipsInjectedFaults is the acceptance scenario from
// the issue: a seeded faultfs run over a 36-file trace directory with 4
// injected corrupt or truncated files completes in best-effort mode
// with a LoadReport listing exactly those 4 files.
func TestLoadBestEffortSkipsInjectedFaults(t *testing.T) {
	const files, faults, seed = 36, 4, 20180702
	ffs := faultfs.New(logCorpus(t, files))
	bad, err := ffs.InjectN(seed, faults,
		faultfs.KindOpenError, faultfs.KindReadError, faultfs.KindTruncate, faultfs.KindCorruptRow)
	if err != nil {
		t.Fatal(err)
	}

	traces, report, err := LoadFS(ffs, LoadOptions{Policy: BestEffort})
	if err != nil {
		t.Fatalf("best-effort load failed: %v", err)
	}
	if len(traces) != files-faults {
		t.Errorf("loaded %d traces, want %d", len(traces), files-faults)
	}
	if !report.Partial() {
		t.Error("report.Partial() = false with skipped files")
	}
	if len(report.Loaded) != files-faults {
		t.Errorf("report.Loaded = %d files, want %d", len(report.Loaded), files-faults)
	}
	var skipped []string
	for _, s := range report.Skipped {
		skipped = append(skipped, s.File)
		if s.Err == nil {
			t.Errorf("skipped file %s has no error", s.File)
		}
		var perr *ParseError
		if !errors.As(s.Err, &perr) || perr.File != s.File {
			t.Errorf("skip reason for %s is not a *ParseError naming it: %v", s.File, s.Err)
		}
	}
	if strings.Join(skipped, ",") != strings.Join(bad, ",") {
		t.Errorf("skipped %v, want exactly the injected %v", skipped, bad)
	}
	users := make(map[string]bool, len(traces))
	for _, tr := range traces {
		users[tr.User] = true
	}
	for _, name := range bad {
		user := strings.TrimSuffix(strings.TrimSuffix(name, ".gz"), ".csv")
		if users[user] {
			t.Errorf("faulted file %s still produced trace %s", name, user)
		}
	}
}

// TestLoadStrictFailsOnFirstInjectedFault is the strict half of the
// acceptance scenario: the same corpus fails with a *ParseError naming
// the first bad file in directory order.
func TestLoadStrictFailsOnFirstInjectedFault(t *testing.T) {
	const files, faults, seed = 36, 4, 20180702
	ffs := faultfs.New(logCorpus(t, files))
	bad, err := ffs.InjectN(seed, faults,
		faultfs.KindOpenError, faultfs.KindReadError, faultfs.KindTruncate, faultfs.KindCorruptRow)
	if err != nil {
		t.Fatal(err)
	}

	traces, _, err := LoadFS(ffs, LoadOptions{Policy: Strict})
	if err == nil {
		t.Fatal("strict load of a faulted corpus succeeded")
	}
	if traces != nil {
		t.Errorf("strict failure still returned %d traces", len(traces))
	}
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if perr.File != bad[0] {
		t.Errorf("ParseError names %q, want first faulted file %q", perr.File, bad[0])
	}
}

func TestLoadFailureBudget(t *testing.T) {
	ffs := faultfs.New(logCorpus(t, 10))
	bad, err := ffs.InjectN(7, 3, faultfs.KindCorruptRow)
	if err != nil {
		t.Fatal(err)
	}

	// Budget below the fault count: the load fails once exceeded.
	_, report, err := LoadFS(ffs, LoadOptions{Policy: BestEffort, FailureBudget: 2})
	if err == nil {
		t.Fatal("load with 3 faults passed a budget of 2")
	}
	if !strings.Contains(err.Error(), "failure budget of 2 exceeded") {
		t.Errorf("err = %v", err)
	}
	if len(report.Skipped) != 3 {
		t.Errorf("report records %d skips at failure, want 3", len(report.Skipped))
	}

	// Budget at the fault count: the load completes.
	if _, _, err := LoadFS(ffs, LoadOptions{Policy: BestEffort, FailureBudget: 3}); err != nil {
		t.Errorf("load with 3 faults failed a budget of 3: %v", err)
	}

	// Zero budget means unlimited.
	traces, report, err := LoadFS(ffs, LoadOptions{Policy: BestEffort})
	if err != nil {
		t.Fatalf("unlimited budget: %v", err)
	}
	if len(traces) != 7 || len(report.Skipped) != len(bad) {
		t.Errorf("loaded %d, skipped %d; want 7 and %d", len(traces), len(report.Skipped), len(bad))
	}
}

func TestLoadErrNoTraces(t *testing.T) {
	// No trace files at all.
	empty := fstest.MapFS{"README.md": &fstest.MapFile{Data: []byte("x")}}
	if _, _, err := LoadFS(empty, LoadOptions{}); !errors.Is(err, ErrNoTraces) {
		t.Errorf("empty dir: err = %v, want ErrNoTraces", err)
	}

	// Every file skipped: best-effort cannot conjure traces from a
	// fully-corrupt corpus, and the failure still reads as "no traces".
	ffs := faultfs.New(logCorpus(t, 3))
	if _, err := ffs.InjectN(1, 3, faultfs.KindTruncate); err != nil {
		t.Fatal(err)
	}
	_, report, err := LoadFS(ffs, LoadOptions{Policy: BestEffort})
	if !errors.Is(err, ErrNoTraces) {
		t.Errorf("all-skipped: err = %v, want ErrNoTraces in chain", err)
	}
	if len(report.Skipped) != 3 {
		t.Errorf("all-skipped report: %d skips, want 3", len(report.Skipped))
	}
}

func TestLoadDuplicateUser(t *testing.T) {
	// Same stem with and without compression: both resolve to user "x".
	plain := []byte("hour,instances\n0,5\n")
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	twin := fstest.MapFS{
		"x.csv":    &fstest.MapFile{Data: plain},
		"x.csv.gz": &fstest.MapFile{Data: gz.Bytes()},
	}
	for _, policy := range []ErrorPolicy{Strict, BestEffort} {
		_, _, err := LoadFS(twin, LoadOptions{Policy: policy})
		var dup *DuplicateUserError
		if !errors.As(err, &dup) {
			t.Fatalf("%v: err = %v, want *DuplicateUserError", policy, err)
		}
		if dup.User != "x" || dup.Files != [2]string{"x.csv", "x.csv.gz"} {
			t.Errorf("%v: duplicate = %+v", policy, dup)
		}
		for _, f := range dup.Files {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%v: error %q does not name %s", policy, err, f)
			}
		}
	}

	// Two differently-named files whose "# user:" headers collide.
	headers := fstest.MapFS{
		"a.csv": &fstest.MapFile{Data: []byte("# user: shared\nhour,instances\n0,1\n")},
		"b.csv": &fstest.MapFile{Data: []byte("# user: shared\nhour,instances\n0,2\n")},
	}
	_, _, err := LoadFS(headers, LoadOptions{Policy: BestEffort})
	var dup *DuplicateUserError
	if !errors.As(err, &dup) {
		t.Fatalf("header collision: err = %v, want *DuplicateUserError", err)
	}
	if dup.User != "shared" || dup.Files != [2]string{"a.csv", "b.csv"} {
		t.Errorf("header collision: duplicate = %+v", dup)
	}
}

func TestParseErrorRowAndFile(t *testing.T) {
	// Straight from the row parser: Row set, File empty.
	_, err := ReadEC2Log(strings.NewReader("hour,instances\n0,5\nnot-a-row\n"))
	var perr *ParseError
	if !errors.As(err, &perr) {
		t.Fatalf("err = %v, want *ParseError", err)
	}
	if perr.Row != 3 || perr.File != "" {
		t.Errorf("ParseError = {File: %q, Row: %d}, want row 3, no file", perr.File, perr.Row)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("Error() = %q", err.Error())
	}

	// Through the directory loader: the same error gains the file name.
	corpus := fstest.MapFS{
		"bad.csv": &fstest.MapFile{Data: []byte("hour,instances\n0,5\nnot-a-row\n")},
	}
	_, _, err = LoadFS(corpus, LoadOptions{})
	if !errors.As(err, &perr) {
		t.Fatalf("dir load err = %v, want *ParseError", err)
	}
	if perr.File != "bad.csv" || perr.Row != 3 {
		t.Errorf("ParseError = {File: %q, Row: %d}, want bad.csv line 3", perr.File, perr.Row)
	}
}

func TestErrorPolicyString(t *testing.T) {
	if Strict.String() != "strict" || BestEffort.String() != "best-effort" {
		t.Errorf("policy strings: %q, %q", Strict.String(), BestEffort.String())
	}
}

func TestLoadReportPartialNil(t *testing.T) {
	var r *LoadReport
	if r.Partial() {
		t.Error("nil report is partial")
	}
	if (&LoadReport{Loaded: []string{"a.csv"}}).Partial() {
		t.Error("clean report is partial")
	}
}
