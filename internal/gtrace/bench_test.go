package gtrace

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rimarket/internal/coltrace"
	"rimarket/internal/workload"
)

// writeBenchDirs writes the paper-scale cohort (3 groups x 100 users,
// one year of hours) twice under b's temp dir: as one EC2 usage log per
// user, the directory rid and riexp -tracedir read, and as one .colt
// store per user, the same layout in the columnar format.
func writeBenchDirs(b *testing.B) (logDir, coltDir string) {
	b.Helper()
	traces, err := workload.NewCohort(workload.CohortConfig{PerGroup: 100, Hours: 8760, Seed: 2018})
	if err != nil {
		b.Fatal(err)
	}
	logDir, coltDir = filepath.Join(b.TempDir(), "logs"), filepath.Join(b.TempDir(), "colt")
	for _, dir := range []string{logDir, coltDir} {
		if err := os.Mkdir(dir, 0o755); err != nil {
			b.Fatal(err)
		}
	}
	for i, tr := range traces {
		f, err := os.Create(filepath.Join(logDir, fmt.Sprintf("u%05d.csv", i)))
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteEC2Log(f, tr); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		c, err := coltrace.FromTraces([]workload.Trace{tr})
		if err != nil {
			b.Fatal(err)
		}
		if err := coltrace.WriteFile(filepath.Join(coltDir, fmt.Sprintf("u%05d%s", i, coltrace.Ext)), c); err != nil {
			b.Fatal(err)
		}
	}
	return logDir, coltDir
}

// BenchmarkLoadEC2LogDir is rid's trace ingest: a strict load of 300
// paper-scale usage logs, decoded on GOMAXPROCS workers.
func BenchmarkLoadEC2LogDir(b *testing.B) {
	dir, _ := writeBenchDirs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		traces, _, err := LoadFS(os.DirFS(dir), LoadOptions{})
		if err != nil || len(traces) != 300 {
			b.Fatalf("loaded %d traces: %v", len(traces), err)
		}
	}
}

// BenchmarkLoadColtDir loads the same cohort from one .colt store per
// user through the same loader.
func BenchmarkLoadColtDir(b *testing.B) {
	_, dir := writeBenchDirs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		traces, _, err := LoadFS(os.DirFS(dir), LoadOptions{})
		if err != nil || len(traces) != 300 {
			b.Fatalf("loaded %d traces: %v", len(traces), err)
		}
	}
}
