package main

// The demo golden pins the default book demo's stdout byte for byte,
// together with one run at another seed, instance type and fee, so a
// change to the market's matching, fee split or listing order shows as
// a diff. Regenerate after an intentional change with:
//
//	go test ./cmd/rimarket -run TestDemoGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestDemoGolden(t *testing.T) {
	runs := [][]string{
		nil,
		{"-seed", "3", "-instance", "m4.large", "-fee", "0.3", "-sellers", "9", "-buyers", "6"},
	}
	var out strings.Builder
	for _, args := range runs {
		out.WriteString("$ " + strings.Join(append([]string{"rimarket"}, args...), " ") + "\n")
		if err := run(args, &out); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	path := filepath.Join("testdata", "demo.golden")
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
