package experiments

// BenchmarkGridSkewed pins the scheduler cost the sharded pool was
// built to fix: a heavy-tailed grid where contiguous shards leave one
// worker serializing the expensive cells. The uniform/skewed x
// steal on/off matrix is gated against BENCH.json by
// scripts/bench.sh, which holds the skewed wall time so a
// scheduler regression (or an accidental stealing disable) fails the
// build. On multi-core machines dist=skewed/steal=off is the slow
// quadrant; the committed baseline is only ever compared against runs
// on the same machine class.

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
		// onto the four indices the first shard owns.
		{name: "uniform", units: func(i int) int { return 4_000 }},
		{name: "skewed", units: heavyTailUnits},
	}
	for _, dist := range dists {
		for _, steal := range []bool{true, false} {
			mode := "on"
			if !steal {
				mode = "off"
			}
			b.Run(fmt.Sprintf("dist=%s/steal=%s", dist.name, mode), func(b *testing.B) {
				defer func(prev bool) { stealEnabled = prev }(stealEnabled)
				stealEnabled = steal
				out := make([]float64, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, _, err := runShardedDone(context.Background(), workers, n, func(_, j int) error {
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
}
