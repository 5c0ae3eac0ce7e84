package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// declared is the part of BENCHMARK.json the smoke test holds the
// benchmark to.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every declared workload at test scale, untraced and
// traced, and checks that each result line carries exactly the declared
// metrics with their units and that no operation failed.
func TestSmoke(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl declared
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	for _, w := range decl.Workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{decl.EndToEnd, decl.PerLayer} {
			t.Run(w.Name+"/trace"+strconv.Itoa(trace), func(t *testing.T) {
				var out, errOut bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "7", "--seconds", "1", "--trace", strconv.Itoa(trace), "--scale", "test", "--results", ""}
				if code := run(args, &out, &errOut); code != 0 {
					t.Fatalf("exit %d: %s", code, errOut.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("correct=%v failed=%d attempted=%d: %s", res.Correct, res.Failed, res.Attempted, errOut.String())
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					got, ok := res.Metrics[d.Name]
					if !ok || got.Unit != d.Unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", d.Name, got, ok, d.Unit)
					}
				}
			})
		}
	}
}

// TestCompareRefusesOtherMachines checks that results stamped by
// different machines are flagged, not diffed.
func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	a := record{Workload: "paper-suite", Env: envStamp{CPU: "x", NumCPU: 2, GOMAXPROCS: 2}, Result: result{Metrics: metrics{"run_s": {1, "s"}}}}
	b := a
	b.Env.NumCPU = 8
	for name, rec := range map[string]record{"a.json": a, "b.json": b} {
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")); err == nil || !strings.Contains(out.String(), "not comparable") {
		t.Errorf("different machines compared: err=%v out=%q", err, out.String())
	}
	out.Reset()
	if err := compareFiles(&out, filepath.Join(dir, "a.json"), filepath.Join(dir, "a.json")); err != nil || !strings.Contains(out.String(), "run_s") {
		t.Errorf("same machine not compared: err=%v out=%q", err, out.String())
	}
}
