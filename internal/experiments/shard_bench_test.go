package experiments

// BenchmarkGridSkewed pins the scheduler's cost on a uniform and a
// heavy-tailed grid of the same total work. scripts/bench.sh gates
// both rows against BENCH.json: the skewed wall time catches a pool
// that serializes behind its heavy jobs, and allocs/op — fixed by the
// pool's set-up, whatever the timing — are held exactly. The committed
// baseline is only ever compared against runs on the same machine
// class.

import (
	"context"
	"fmt"
	"testing"
)

func BenchmarkGridSkewed(b *testing.B) {
	const (
		n       = 256
		workers = 4
	)
	dists := []struct {
		name  string
		units func(i int) int
	}{
		// Same total work in both distributions, so the pair isolates
		// scheduling: uniform spreads it evenly, skewed piles ~75% of it
		// onto every 64th index.
		{name: "uniform", units: func(i int) int { return 4_000 }},
		{name: "skewed", units: heavyTailUnits},
	}
	for _, dist := range dists {
		b.Run(fmt.Sprintf("dist=%s", dist.name), func(b *testing.B) {
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, err := runPool(context.Background(), workers, n, func(_, j int) error {
					out[j] = spinWork(j, dist.units(j))
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
