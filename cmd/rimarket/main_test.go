package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rimarket/internal/obs"
)

func TestRunDemo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sellers", "6", "-buyers", "3", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"listing 6 reservations", "buyers arrive", "clearing summary", "fee"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run([]string{"-seed", "42"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-seed", "42"}, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("same seed produced different output")
	}
}

func TestRunSalesAreOrderedByPrice(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-sellers", "8", "-buyers", "8", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	// Every listed reservation eventually sells when buyers outnumber
	// listings; the clearing summary must say 8 sales.
	if !strings.Contains(out.String(), "8 sales") {
		t.Errorf("expected full clearing:\n%s", out.String())
	}
}

func TestRunSession(t *testing.T) {
	args := []string{"-session", "-per-group", "4", "-instances", "d2.xlarge,m4.large"}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"emergent sale probability", "P(sale)", "d2.xlarge", "m4.large", "totals: buyers paid"} {
		if !strings.Contains(s, want) {
			t.Errorf("session output missing %q:\n%s", want, s)
		}
	}
	// The session is deterministic: any parallelism bound must
	// reproduce it byte for byte.
	for _, par := range []string{"1", "2", "4"} {
		var again strings.Builder
		if err := run(append(args, "-parallelism", par), &again); err != nil {
			t.Fatal(err)
		}
		if again.String() != s {
			t.Errorf("-parallelism %s session diverged:\n--- got ---\n%s--- want ---\n%s", par, again.String(), s)
		}
	}
}

func TestRunErrors(t *testing.T) {
	tests := []struct {
		name string
		args []string
	}{
		{name: "unknown instance", args: []string{"-instance", "nope.large"}},
		{name: "bad fee", args: []string{"-fee", "1.5"}},
		{name: "bad flag", args: []string{"-zzz"}},
		{name: "session unknown type", args: []string{"-session", "-instances", "nope.large"}},
		{name: "session no types", args: []string{"-session", "-instances", ","}},
		{name: "session bad scale", args: []string{"-session", "-scale", "0.5"}},
		{name: "session bad discount", args: []string{"-session", "-discount", "1.5", "-per-group", "2"}},
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

// TestSessionManifestCountsEngineRuns pins the -session manifest to the
// session's real engine work: each seller is replayed once per card,
// under its round-robin selling policy, and every replay books one
// engine run (cards × cohort users) at any parallelism. Writing the
// manifest leaves stdout unchanged.
func TestSessionManifestCountsEngineRuns(t *testing.T) {
	const perGroup = 4
	base := []string{"-session", "-per-group", strconv.Itoa(perGroup), "-instances", "d2.xlarge,m4.large"}
	var plain strings.Builder
	if err := run(base, &plain); err != nil {
		t.Fatal(err)
	}
	const cards, users = 2, 3 * perGroup
	for _, par := range []string{"1", "4"} {
		path := filepath.Join(t.TempDir(), "run.json")
		var out strings.Builder
		if err := run(append(append([]string{}, base...), "-parallelism", par, "-metrics", path), &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != plain.String() {
			t.Errorf("-parallelism %s: -metrics changed stdout:\n--- got ---\n%s--- want ---\n%s", par, out.String(), plain.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var mf obs.Manifest
		if err := json.Unmarshal(data, &mf); err != nil {
			t.Fatalf("manifest parse: %v", err)
		}
		if mf.Metrics == nil {
			t.Fatal("manifest has no metrics snapshot")
		}
		if got, want := mf.Metrics.EngineRuns, int64(cards*users); got != want {
			t.Errorf("-parallelism %s: engine_runs = %d, want %d replays", par, got, want)
		}
	}
}
