package main

// The demo golden pins the default book demo's stdout byte for byte,
// together with one run at another seed, instance type and fee, so a
// change to the market's matching, fee split or listing order shows as
// a diff. The session golden does the same for one three-card -session
// run, so a change to the session's seller streams, buyer order or
// fill priority shows as a diff. Regenerate after an intentional change
// with:
//
//	go test ./cmd/rimarket -run 'TestDemoGolden|TestSessionGolden' -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestDemoGolden(t *testing.T) {
	checkGolden(t, "demo.golden", [][]string{
		nil,
		{"-seed", "3", "-instance", "m4.large", "-fee", "0.3", "-sellers", "9", "-buyers", "6"},
	})
}

func TestSessionGolden(t *testing.T) {
	checkGolden(t, "session.golden", [][]string{
		{"-session", "-per-group", "40", "-instances", "d2.xlarge,m4.large,c4.large"},
	})
}

// checkGolden runs each argument list in turn, echoing it as a shell
// line before its stdout, and compares the transcript with
// testdata/name (rewriting it under -update).
func checkGolden(t *testing.T, name string, runs [][]string) {
	t.Helper()
	var out strings.Builder
	for _, args := range runs {
		out.WriteString("$ " + strings.Join(append([]string{"rimarket"}, args...), " ") + "\n")
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
}
