package experiments

// Property tests for the shared-cursor scheduler (shard.go):
// deliberately skewed job costs — a heavy tail on a few cells — must
// not change a single output byte or the lowest-index-first-error
// pick at any parallelism, including when the panicking job runs
// while another worker is still busy. Run under -race in CI, these are
// also the proof that the direct done[i] writes have no data races.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rimarket/internal/core"
	"rimarket/internal/simulate"
)

// spinWork burns deterministic CPU proportional to units and returns
// a value derived from it, so the compiler cannot elide the loop and
// the result is reproducible for assertions.
func spinWork(i, units int) float64 {
	acc := uint64(i) + 0x9e3779b97f4a7c15
	for k := 0; k < units; k++ {
		acc ^= acc << 13
		acc ^= acc >> 7
		acc ^= acc << 17
	}
	return float64(acc%1000) + float64(i)
}

// heavyTailUnits gives every 64th job ~200x the work of the rest, so
// the heavy jobs land on whichever workers claim them and finish long
// after later, light jobs — completion order is nothing like index
// order.
func heavyTailUnits(i int) int {
	if i%64 == 0 {
		return 200_000
	}
	return 1_000
}

func TestShardedSkewDeterminism(t *testing.T) {
	const n = 192
	ref := make([]float64, n)
	for i := range ref {
		ref[i] = spinWork(i, heavyTailUnits(i))
	}
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			out := make([]float64, n)
			done, err := runPool(context.Background(), par, n, func(_, i int) error {
				out[i] = spinWork(i, heavyTailUnits(i))
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range out {
				if !done[i] {
					t.Fatalf("job %d not marked done", i)
				}
				if out[i] != ref[i] {
					t.Fatalf("job %d = %v, want %v", i, out[i], ref[i])
				}
			}
		})
	}
}

func TestShardedSkewFirstErrorDeterministic(t *testing.T) {
	const n = 192
	failAt := map[int]bool{3: true, 77: true, 130: true}
	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ran := make([]bool, n)
			_, err := runPool(context.Background(), par, n, func(_, i int) error {
				ran[i] = true
				spinWork(i, heavyTailUnits(i))
				if failAt[i] {
					return fmt.Errorf("job %d failed", i)
				}
				return nil
			})
			if err == nil || err.Error() != "job 3 failed" {
				t.Fatalf("err = %v, want the lowest-index failure (job 3)", err)
			}
			for i := 0; i < 3; i++ {
				if !ran[i] {
					t.Errorf("job %d below the failing index never ran", i)
				}
			}
		})
	}
}

// TestShardedPanicFromStolenJob makes a job panic while another
// worker is still inside an earlier one. Job 0 blocks until job 3 has
// run, which can only happen if other workers keep claiming from the
// shared cursor while job 0's worker is busy — so the test fails by
// watchdog if claiming is serialized behind a running job, and
// otherwise proves a concurrent job's panic is captured as a
// *JobPanicError under the lowest-index rule like any other failure.
func TestShardedPanicFromStolenJob(t *testing.T) {
	const (
		n       = 16
		workers = 4
	)
	release := make(chan struct{})
	_, err := runPool(context.Background(), workers, n, func(_, i int) error {
		switch i {
		case 0:
			select {
			case <-release:
			case <-time.After(10 * time.Second):
				t.Error("job 3 never ran concurrently: job 0 timed out waiting")
			}
		case 3:
			close(release)
			panic("boom from concurrent job")
		}
		return nil
	})
	var pe *JobPanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *JobPanicError", err)
	}
	if pe.Index != 3 {
		t.Fatalf("panic captured at index %d, want 3", pe.Index)
	}
	if pe.Value != "boom from concurrent job" {
		t.Fatalf("panic value = %v", pe.Value)
	}
}

// TestGridSkewDeterminism runs the real RunGrid with the engine hook
// slowed down on a few cells (a deterministic spin before the real
// run), asserting the grid's results are exactly equal to the
// unskewed reference at parallelism {1, 4, NumCPU} — the end-to-end
// version of the scheduler property, through the plan cache, obs
// tracker, and result assembly.
func TestGridSkewDeterminism(t *testing.T) {
	cfg := smallConfig()
	ctx := context.Background()
	plan, err := NewCohortPlan(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mkCells := func() []Cell {
		var cells []Cell
		for _, k := range []float64{0.25, 0.5, 0.75} {
			policy, err := core.NewThreshold(cfg.Instance, cfg.SellingDiscount, k)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, Cell{Name: fmt.Sprintf("k=%v", k), Policy: policy, Engine: plan.engineConfig()})
		}
		return cells
	}
	ref, err := plan.RunGrid(ctx, mkCells())
	if err != nil {
		t.Fatal(err)
	}

	// Make every engine run spin before delegating, so jobs stay in
	// flight long enough for workers to finish out of index order.
	orig := simulateResume
	var sink atomic.Uint64 // workers run the hook concurrently
	simulateResume = func(s *simulate.Scratch, u int, pt *simulate.ResumePoint, ec simulate.Config, pol simulate.SellingPolicy) (simulate.Totals, error) {
		sink.Add(uint64(spinWork(0, 50_000)))
		return orig(s, u, pt, ec, pol)
	}
	defer func() { simulateResume = orig }()

	for _, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			plan.cfg.Parallelism = par
			got, err := plan.RunGrid(ctx, mkCells())
			if err != nil {
				t.Fatal(err)
			}
			assertGridsEqual(t, got, ref)
		})
	}
}

// assertGridsEqual requires bit-exact equality between two grids —
// the byte-identical-at-any-parallelism contract, checked at float64
// bit granularity rather than tolerance.
func assertGridsEqual(t *testing.T, got, want []CellResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d cells, want %d", len(got), len(want))
	}
	for ci := range want {
		if got[ci].Name != want[ci].Name {
			t.Fatalf("cell %d named %q, want %q", ci, got[ci].Name, want[ci].Name)
		}
		for u := range want[ci].Cost {
			if got[ci].Cost[u] != want[ci].Cost[u] ||
				got[ci].Norm[u] != want[ci].Norm[u] ||
				got[ci].Sold[u] != want[ci].Sold[u] {
				t.Fatalf("cell %q user %d differs from reference", want[ci].Name, u)
			}
		}
	}
}
